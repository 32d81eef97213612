"""Checkpoint round trips: a run split at an idle, collected point
equals the unbroken run, and every field of every part is accounted for.

The matrix runs each cell twice — once straight through, once saved
after phase A and restored into a freshly built context before phase
B — and requires equal ``sim.stats()``, phase-B result and memory
digest.  The classification test walks the part tree
(:class:`repro.hmc.components.Stateful` ``PARTS``) of a restored
context beside the original: every attribute it meets is either
checkpointed (and equal after the round trip) or listed below as
rebuilt, with the reason.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict

import pytest

from repro.core.cmc import CMCRegistry
from repro.faults.controller import FaultController
from repro.faults.plan import FaultPlan
from repro.hmc.bank import Bank
from repro.hmc.checkpoint import restore_checkpoint, save_checkpoint
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig, resolve_config
from repro.hmc.device import Device
from repro.hmc.flow import ErrorModel, LinkFlowModel, LinkFlowState
from repro.hmc.link import Link
from repro.hmc.memory import MemoryBackend
from repro.hmc.power import PowerReport
from repro.hmc.queue import StallQueue
from repro.hmc.registers import RegisterFile
from repro.hmc.sim import HMCSim
from repro.hmc.topology import Topology
from repro.hmc.vault import RoundRobinVaultScheduler, Vault
from repro.hmc.xbar import XBar
from repro.workloads.registry import WORKLOADS
from tests.conftest import with_flow

CFG4 = HMCConfig.cfg_4link_4gb()


@dataclass
class Cell:
    """``make()`` builds the context; ``phase_a`` runs before the
    split, ``phase_b`` after it and returns the compared result."""

    make: Callable[[], HMCSim]
    phase_a: Callable[[HMCSim], Any]
    phase_b: Callable[[HMCSim], Any]


def _kernel(name: str) -> Callable[[HMCSim], Any]:
    return lambda sim: WORKLOADS.get(name).run(sim.config, {"threads": 8}, sim=sim)


def _kernels(make_sim: Callable[[], HMCSim]) -> Cell:
    """Algorithm 1's mutex, then the ticket lock on the same context."""
    return Cell(make_sim, _kernel("mutex"), _kernel("ticket"))


def _faulty() -> Cell:
    """Two mutex runs under a CMC-crashing fault plan (the kernel arms
    its watchdog): split with fault counts standing, so the controller's
    state and the plan's stateless draws carry the second run."""

    def make():
        return HMCSim(CFG4, faults=FaultPlan.parse(["cmc_crash=0.2"], seed=3))

    def phase_a(sim):
        _kernel("mutex")(sim)
        assert sim.faults.counts["cmc_crash"]

    return Cell(make, phase_a, _kernel("mutex"))


def _chained() -> Cell:
    """Two chained cubes, split midway through forwarded traffic, after
    a drain and collect."""
    cfg = HMCConfig.cfg_4link_4gb(num_devs=2)

    def batch(sim, first):
        for tag in range(first, first + 6):
            sim.mem_write(0x80 * tag, bytes([0xA0 + tag]) * 16, dev=1)
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x80 * tag, tag, cub=1),
                     link=tag % 4)
        sim.drain()
        return [
            (r.tag, r.data, r.retire_cycle)
            for link in range(4)
            for r in sim.recv_batch(link=link)
        ]

    def phase_a(sim):
        assert len(batch(sim, 0)) == 6
        assert sim.topology.forwarded_requests and sim.topology.forwarded_responses

    return Cell(lambda: HMCSim(cfg), phase_a, lambda sim: batch(sim, 6))


CELLS: Dict[str, Callable[[], Cell]] = {
    "4link": lambda: _kernels(lambda: HMCSim(CFG4)),
    "8link": lambda: _kernels(lambda: HMCSim(HMCConfig.cfg_8link_8gb())),
    "round_robin": lambda: _kernels(
        lambda: HMCSim(HMCConfig.cfg_4link_4gb(vault_scheduler="round_robin"))
    ),
    "timing": lambda: _kernels(
        lambda: HMCSim(HMCConfig.cfg_4link_4gb(timing="open_page"))
    ),
    "power": lambda: _kernels(lambda: HMCSim(HMCConfig.cfg_4link_4gb(power="energy"))),
    "timing_power": lambda: _kernels(
        lambda: HMCSim(resolve_config("4link", {"timing": "open_page", "power": "energy"}))
    ),
    "tokens_crc": lambda: _kernels(
        lambda: with_flow(CFG4, LinkFlowModel(errors=ErrorModel(0.05)))
    ),
    "faults_watchdog": _faulty,
    "chained_midflight": _chained,
    "xbar_vector": lambda: _kernels(
        lambda: HMCSim(HMCConfig.cfg_4link_4gb(xbar="vector"))
    ),
}


def _digest(sim: HMCSim) -> str:
    h = hashlib.sha256()
    for base, content in sim.backend.iter_resident():
        h.update(base.to_bytes(8, "little"))
        h.update(content)
    return h.hexdigest()


def _run(cell: Cell, tmp_path, *, split: bool):
    sim = cell.make()
    cell.phase_a(sim)
    if split:
        p = save_checkpoint(sim, tmp_path / "cp.json")
        sim = cell.make()
        restore_checkpoint(sim, p)
    result = cell.phase_b(sim)
    return sim.stats(), result, _digest(sim)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_split_run_equals_unbroken_run(name, tmp_path):
    cell = CELLS[name]()
    assert _run(cell, tmp_path, split=True) == _run(cell, tmp_path, split=False)


# -- classification -------------------------------------------------------------

_CONFIG = "configuration (the fingerprint must match)"
_DERIVED = "derived from the configuration at construction"
_WIRING = "a reference to the owning context"
_QUIESCED = "empty in an idle, collected context (the save refuses otherwise)"

#: Attributes a part's own snapshot_state encodes beyond its STATE and
#: PARTS declarations.
HAND_ENCODED = {
    HMCSim: {"backend", "cmc"},
    LinkFlowModel: {"_links", "retry_events"},
    RegisterFile: {"_regs"},
}

#: Attributes no checkpoint carries, and why.
REBUILT: Dict[type, Dict[str, str]] = {
    HMCSim: {
        "config": _CONFIG,
        "timing": _CONFIG,
        "power": _CONFIG,
        "addrmap": _DERIVED,
        "_num_devs": _DERIVED,
        "_num_links": _DERIVED,
        "tracer": "an observation sink the caller configures, not simulated state",
        "_cmc_expects": "a memo rebuilt on the next registry epoch",
        "_cmc_expects_epoch": "a memo rebuilt on the next registry epoch",
        "_initialized": "a restored context is live",
        "_outstanding": _QUIESCED,
    },
    Device: {
        "dev": _DERIVED,
        "config": _CONFIG,
        "_sim": _WIRING,
        "_mem": "a view onto the backend, whose pages HMCSim checkpoints",
        "_active_vaults": _QUIESCED,
        "_cap_mask": _DERIVED,
        "_vault_lo": _DERIVED,
        "_vault_mask": _DERIVED,
        "_bank_lo": _DERIVED,
        "_bank_mask": _DERIVED,
        "_row_lo": _DERIVED,
        "_row_mask": _DERIVED,
        "_quads_of_vaults": _DERIVED,
        "_send_hook": "a capability of the configured crossbar",
        "_cycle_hook": "a capability of the configured crossbar",
        "queues": "a list of the parts' queues, which the parts checkpoint",
    },
    Link: {"link_id": _DERIVED, "quad": _DERIVED, "retired": _QUIESCED},
    XBar: {"config": _CONFIG, "dev": _DERIVED, "rqst_occ": _QUIESCED, "rsp_occ": _QUIESCED},
    StallQueue: {"depth": _DERIVED, "name": _DERIVED, "_q": _QUIESCED},
    Vault: {"index": _DERIVED, "quad": _DERIVED, "dev": _DERIVED, "_pending_rsp": _QUIESCED},
    Bank: {"index": _DERIVED},
    Topology: {
        "sim": _WIRING,
        "hop_cycles": _CONFIG,
        "_rqst_wire": _QUIESCED,
        "_rsp_wire": _QUIESCED,
    },
    LinkFlowModel: {
        "tokens_per_link": _CONFIG,
        "retry_latency": _CONFIG,
        "errors": _CONFIG,
        "_replay_links": _QUIESCED,
    },
    FaultController: {
        "sim": _WIRING,
        "plan": _CONFIG,
        "lost_tags": _QUIESCED,
        **{
            site: "an injector built from the plan (its draws are stateless hashes)"
            for site in ("dram", "vault", "rsp_drop", "rsp_dup", "cmc", "link")
        },
        **{
            flag: _DERIVED
            for flag in ("has_dram", "has_vault", "has_rsp_faults", "has_cmc")
        },
    },
    RegisterFile: {"config": _CONFIG, "dev": _DERIVED},
    PowerReport: {},
    RoundRobinVaultScheduler: {},
}


def _lookup(cls: type, table: Dict[type, Any]) -> Any:
    merged: Dict[str, Any] = {}
    for base in reversed(cls.__mro__):
        entry = table.get(base)
        if entry:
            merged.update(dict.fromkeys(entry) if isinstance(entry, set) else entry)
    return merged


def _attrs(obj: object) -> set:
    names = set(getattr(obj, "__dict__", ()))
    for base in type(obj).__mro__:
        names.update(getattr(base, "__slots__", ()))
    return names


def _norm(value: Any) -> Any:
    """A comparable form of a checkpointed value."""
    if isinstance(value, LinkFlowState):
        return _norm(vars(value))
    if isinstance(value, MemoryBackend):
        return list(value.iter_resident())
    if isinstance(value, CMCRegistry):
        return [(op.source, op.cmd, op.executions, op.active) for op in value.operations()]
    if isinstance(value, dict):
        return {k: _norm(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, deque)):
        return [_norm(v) for v in value]
    return value


def _classify(orig: object, restored: object, path: str, seen: list) -> None:
    cls = type(orig)
    assert type(restored) is cls, path
    seen.append(cls)
    parts = set(cls.PARTS)
    checkpointed = set(cls.STATE) | parts | set(_lookup(cls, HAND_ENCODED))
    rebuilt = _lookup(cls, REBUILT)
    for name in sorted(_attrs(orig)):
        where = f"{path}.{name}"
        if name in rebuilt:
            assert name not in checkpointed, f"{where} is listed twice"
            if rebuilt[name] == _QUIESCED:
                assert not getattr(orig, name), f"{where} is not empty"
            continue
        assert name in checkpointed, (
            f"{where} ({cls.__name__}) is neither checkpointed nor listed "
            f"as rebuilt: declare it in STATE/PARTS or classify it here"
        )
        a, b = getattr(orig, name), getattr(restored, name)
        if name not in parts:
            assert _norm(a) == _norm(b), f"{where} differs after the round trip"
        elif isinstance(a, list):
            for i, (x, y) in enumerate(zip(a, b)):
                _classify(x, y, f"{where}[{i}]", seen)
        elif a is not None:
            _classify(a, b, where, seen)


# xbar=vector round-trips in the matrix above, but VectorXBar's own
# fields (flight table, mode machine) are unchecked here: ROADMAP item 2
# deletes that engine.
@pytest.mark.parametrize(
    "name",
    ["round_robin", "timing", "power", "tokens_crc", "faults_watchdog", "chained_midflight"],
)
def test_every_field_is_checkpointed_or_rebuilt(name, tmp_path):
    cell = CELLS[name]()
    sim = cell.make()
    cell.phase_a(sim)
    p = save_checkpoint(sim, tmp_path / "cp.json")
    restored = cell.make()
    restore_checkpoint(restored, p)
    seen: list = []
    _classify(sim, restored, "sim", seen)
    # The walk reached every kind of part the cell builds.
    assert {HMCSim, Device, Link, XBar, StallQueue, Vault, Bank, RegisterFile} <= {
        base for cls in seen for base in cls.__mro__
    }
