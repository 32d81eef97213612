"""Checkpoint round trips: a run split at a quiesced point equals the
unbroken run, and every field of every part is accounted for.

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
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.core.cmc import CMCRegistry
from repro.faults.controller import FaultController
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import ArmedTag, TagWatchdog
from repro.hmc.bank import Bank
from repro.hmc.checkpoint import restore_checkpoint, save_checkpoint
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.components import MemoryModel
from repro.hmc.config import HMCConfig
from repro.hmc.device import Device
from repro.hmc.flow import ErrorModel, LinkFlowModel, LinkFlowState
from repro.hmc.link import Link
from repro.hmc.packet import RequestPacket, ResponsePacket, packet_state
from repro.hmc.power import HMCPowerModel, PowerReport
from repro.hmc.queue import StallQueue
from repro.hmc.registers import RegisterFile
from repro.hmc.sim import HMCSim
from repro.hmc.timing import HMCTimingModel
from repro.hmc.topology import Topology
from repro.hmc.vault import RoundRobinVaultScheduler, Vault
from repro.hmc.xbar import Flight, XBar
from repro.workloads.registry import WORKLOADS

CFG4 = HMCConfig.cfg_4link_4gb()


@dataclass
class Cell:
    """``make()`` builds (sim, extras); ``phase_a`` runs before the
    split, ``phase_b`` after it and returns the compared result."""

    make: Callable[[], Tuple[HMCSim, Dict[str, Any]]]
    phase_a: Callable[[HMCSim, Dict[str, Any]], None]
    phase_b: Callable[[HMCSim, Dict[str, Any]], Any]


def _kernel(name: str) -> Callable[[HMCSim, Dict[str, Any]], Any]:
    return lambda sim, _extras: WORKLOADS.get(name).run(
        sim.config, {"threads": 8}, sim=sim
    )


def _kernels(make_sim: Callable[[], HMCSim]) -> Cell:
    """Algorithm 1's mutex, then the ticket lock on the same context."""
    return Cell(lambda: (make_sim(), {}), _kernel("mutex"), _kernel("ticket"))


def _lossy() -> Cell:
    """Reads under a response-dropping fault plan with the host watchdog
    retransmitting: split with tags lost, armed and mid-backoff, and
    with answered responses still in the links' retire buffers."""

    def make():
        sim = HMCSim(CFG4, faults=FaultPlan.parse(["xbar_drop=0.4"], seed=11))
        return sim, {"watchdog": TagWatchdog(timeout=16, max_retries=6)}

    def step(sim, wd, cycles, collect):
        got = []
        for _ in range(cycles):
            sim.clock()
            if collect:
                for link in range(sim.config.num_links):
                    for rsp in sim.recv_batch(link=link):
                        wd.disarm(rsp.tag)
                        got.append((rsp.tag, rsp.data, sim.cycle))
            for entry in wd.poll(sim.cycle):
                if wd.exhausted(entry):
                    got.append(("exhausted", entry.tag))
                    continue
                sim.abandon_tag(0, entry.tag)
                sim.send(entry.packet, dev=entry.dev, link=entry.link)
                wd.note_retransmit()
                wd.arm(entry.tag, entry.packet, dev=entry.dev,
                       link=entry.link, cycle=sim.cycle)
        return got

    def phase_a(sim, extras):
        wd = extras["watchdog"]
        for tag in range(12):
            sim.mem_write(0x40 * tag, bytes([tag + 1]) * 16)
            pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0x40 * tag, tag)
            sim.send(pkt, link=tag % 4)
            wd.arm(tag, pkt, dev=0, link=tag % 4, cycle=sim.cycle)
        step(sim, wd, 12, collect=False)
        assert sim.faults.lost_tags and sim.recvd_rsps == 0

    def phase_b(sim, extras):
        wd = extras["watchdog"]
        return step(sim, wd, 400, collect=True), wd.stats(), wd.pending()

    return Cell(make, phase_a, phase_b)


def _chained() -> Cell:
    """Two chained cubes, split while packets sit on the inter-cube wire."""
    cfg = HMCConfig.cfg_4link_4gb(num_devs=2)

    def phase_a(sim, _extras):
        for tag in range(6):
            sim.mem_write(0x80 * tag, bytes([0xA0 + tag]) * 16, dev=1)
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x80 * tag, tag, cub=1),
                     link=tag % 4)
        for _ in range(50):
            sim.clock()
            if sim.topology.in_transit and not any(d.busy() for d in sim.devices):
                return
        raise AssertionError("no device-quiesced mid-flight point")

    def phase_b(sim, _extras):
        sim.drain()
        return [
            (r.tag, r.data, r.retire_cycle)
            for link in range(4)
            for r in sim.recv_batch(link=link)
        ]

    return Cell(lambda: (HMCSim(cfg), {}), phase_a, phase_b)


def _with_oracle() -> Cell:
    """A differential reference model rides along in the same file."""
    from repro.oracle import Oracle

    def make():
        return HMCSim(CFG4), {"oracle": Oracle(CFG4)}

    def mirror(sim, oracle, lo, hi):
        for i in range(lo, hi):
            data = bytes([i + 1]) * 16
            sim.mem_write(0x1000 + 0x100 * i, data)
            oracle.mem_write(0x1000 + 0x100 * i, data)

    def phase_a(sim, extras):
        mirror(sim, extras["oracle"], 0, 8)
        _kernel("mutex")(sim, extras)

    def phase_b(sim, extras):
        mirror(sim, extras["oracle"], 8, 16)
        return _kernel("ticket")(sim, extras), extras["oracle"].snapshot_state()

    return Cell(make, phase_a, phase_b)


CELLS: Dict[str, Callable[[], Cell]] = {
    "4link": lambda: _kernels(lambda: HMCSim(CFG4)),
    "8link": lambda: _kernels(lambda: HMCSim(HMCConfig.cfg_8link_8gb())),
    "round_robin": lambda: _kernels(
        lambda: HMCSim(HMCConfig.cfg_4link_4gb(vault_scheduler="round_robin"))
    ),
    "timing": lambda: _kernels(lambda: HMCSim(CFG4, timing=HMCTimingModel())),
    "power": lambda: _kernels(lambda: HMCSim(CFG4, power=HMCPowerModel())),
    "tokens_crc": lambda: _kernels(
        lambda: HMCSim(CFG4, flow=LinkFlowModel(errors=ErrorModel(0.05)))
    ),
    "faults_watchdog": _lossy,
    "chained_midflight": _chained,
    "oracle": _with_oracle,
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
    sim, extras = cell.make()
    cell.phase_a(sim, extras)
    if split:
        p = save_checkpoint(sim, tmp_path / "cp.json", **extras)
        sim, extras = cell.make()
        restore_checkpoint(sim, p, **extras)
    result = cell.phase_b(sim, extras)
    return sim.stats(), result, _digest(sim)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_split_run_equals_unbroken_run(name, tmp_path):
    cell = CELLS[name]()
    assert _run(cell, tmp_path, split=True) == _run(cell, tmp_path, split=False)


# -- classification -------------------------------------------------------------

_CONFIG = "configuration (the fingerprint must match)"
_DERIVED = "derived from the configuration at construction"
_WIRING = "a reference to the owning context"
_QUIESCED = "empty at a quiesced point (the save refuses otherwise)"

#: Attributes a part's own snapshot_state encodes beyond its STATE and
#: PARTS declarations.
HAND_ENCODED = {
    HMCSim: {"backend", "_outstanding", "cmc"},
    Link: {"retired"},
    Topology: {"_rqst_wire", "_rsp_wire"},
    LinkFlowModel: {"_links", "retry_events"},
    FaultController: {"lost_tags"},
    RegisterFile: {"_regs"},
    TagWatchdog: {"_armed", "_attempts"},
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
        "_quads_of_links": _DERIVED,
        "_send_hook": "a capability of the configured crossbar",
        "_cycle_hook": "a capability of the configured crossbar",
        "queues": "a list of the parts' queues, which the parts checkpoint",
    },
    Link: {"link_id": _DERIVED, "quad": _DERIVED},
    XBar: {"config": _CONFIG, "dev": _DERIVED, "rqst_occ": _QUIESCED, "rsp_occ": _QUIESCED},
    StallQueue: {"depth": _DERIVED, "name": _DERIVED, "_q": _QUIESCED},
    Vault: {"index": _DERIVED, "quad": _DERIVED, "dev": _DERIVED, "_pending_rsp": _QUIESCED},
    Bank: {"index": _DERIVED},
    Topology: {"sim": _WIRING, "hop_cycles": _CONFIG, "kind": _CONFIG},
    LinkFlowModel: {
        "tokens_per_link": _CONFIG,
        "retry_latency": _CONFIG,
        "errors": _CONFIG,
        "_replay_links": _QUIESCED,
    },
    FaultController: {
        "sim": _WIRING,
        "plan": _CONFIG,
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
    TagWatchdog: {
        "timeout": _CONFIG,
        "max_retries": _CONFIG,
        "backoff": _CONFIG,
        "_heap": "rebuilt from the armed tags (stale entries are skipped anyway)",
    },
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
    if isinstance(value, (RequestPacket, ResponsePacket)):
        return packet_state(value)
    if isinstance(value, Flight):
        return [_norm(getattr(value, f)) for f in Flight.__slots__]
    if isinstance(value, (LinkFlowState, ArmedTag)):
        return _norm(vars(value))
    if isinstance(value, MemoryModel):
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
    sim, extras = cell.make()
    cell.phase_a(sim, extras)
    p = save_checkpoint(sim, tmp_path / "cp.json", **extras)
    restored, restored_extras = cell.make()
    restore_checkpoint(restored, p, **restored_extras)
    seen: list = []
    _classify(sim, restored, "sim", seen)
    if "watchdog" in extras:
        _classify(extras["watchdog"], restored_extras["watchdog"], "watchdog", seen)
    # The walk reached every kind of part the cell builds.
    assert {HMCSim, Device, Link, XBar, StallQueue, Vault, Bank, RegisterFile} <= {
        base for cls in seen for base in cls.__mro__
    }
