"""Batched host-side retirement: bit-identical to one-at-a-time.

``HostEngine`` drains each link's whole retire buffer with one
``recv_batch`` call per cycle.  It must agree with the one-``recv``-per-
response loop it replaced not just on results but on *per-thread
completion cycles*: responses only appear during ``sim.clock``, so
nothing can land in a retire buffer mid-drain and the batch is exactly
the set the serial loop would have popped.  ``golden_batched_retirement.json``
holds the serial loop's profiles, captured before that loop was
deleted.  These tests pin the batched path to them on both datapaths,
at depths where every link's buffer holds multiple responses per cycle,
and check that a mid-run fault attachment (which spills the vector
engine to the scalar path) still delivers every response once.

``PYTHONPATH=src python tests/host/test_batched_retirement.py``
REWRITES the golden from the current code; only after an intended
behaviour change.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.watchdog import TagWatchdog
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from repro.host.thread import ThreadCtx

GOLDEN = Path(__file__).with_name("golden_batched_retirement.json")

XBARS = ["queued"]
try:
    import numpy  # noqa: F401

    XBARS.append("vector")
except ImportError:
    pass


def mixed_program(ctx: ThreadCtx, ops: int = 6):
    """Reads, atomics, and posted writes over a thread-private stripe."""
    base = 0x4000 + ctx.tid * 0x400
    for i in range(ops):
        kind = (ctx.tid + i) % 4
        if kind == 0:
            yield ctx.read(base + i * 64, 16)
        elif kind == 1:
            yield ctx.inc8(base + i * 64)
        elif kind == 2:
            yield ctx.write(base + i * 64, bytes([i]) * 16, posted=True)
        else:
            yield ctx.request(
                hmc_rqst_t.TWOADD8,
                base + i * 64,
                data=(1).to_bytes(8, "little") + (1).to_bytes(8, "little"),
            )


def _completion_profile(xbar: str) -> dict:
    """24 mixed threads: per-thread (tid, cycles, requests, responses)."""
    sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar=xbar))
    engine = HostEngine(sim)
    engine.add_threads(24, mixed_program)
    result = engine.run()
    return {
        "threads": [[t.tid, t.cycles, t.requests, t.responses] for t in result.threads],
        "total_cycles": result.total_cycles,
    }


def _duplicated_profile() -> dict:
    """xbar_dup + watchdog: per-thread (tid, cycles, responses)."""
    plan = FaultPlan(specs=(FaultSpec.parse("xbar_dup=0.05"),), seed=0x0C4A05)
    sim = HMCSim(HMCConfig.cfg_4link_4gb(), faults=plan)
    engine = HostEngine(sim, watchdog=TagWatchdog(timeout=128))
    engine.add_threads(16, lambda ctx: mixed_program(ctx, ops=6))
    result = engine.run()
    return {
        "threads": [[t.tid, t.cycles, t.responses] for t in result.threads],
        "duplicate_rsps": result.duplicate_rsps,
        "total_cycles": result.total_cycles,
    }


def _capture() -> dict:
    doc = {f"mixed24_{xbar}": _completion_profile(xbar) for xbar in ("queued", "vector")}
    doc["xbar_dup_watchdog"] = _duplicated_profile()
    return doc


@pytest.mark.parametrize("xbar", XBARS)
def test_batched_matches_serial_per_thread(xbar):
    golden = json.loads(GOLDEN.read_text())
    assert _completion_profile(xbar) == golden[f"mixed24_{xbar}"]


def test_datapaths_agree_on_completion_cycles():
    if "vector" not in XBARS:
        pytest.skip("numpy not installed")
    assert _completion_profile("vector") == _completion_profile("queued")


def test_duplicated_responses_match_serial_interleaving():
    """xbar_dup + same-cycle reissue: batched must track serial exactly.

    A response popped one at a time discards its outstanding key as it
    goes, so a duplicate arriving after a same-cycle reissue re-armed
    the tag consumes the reissue's entry.  ``recv_batch`` discharges
    the whole vector up front, so the engine re-discards per response
    to keep the next strict-tag send legal.  This is the exact
    interleaving that raised ``TagError`` before the per-response
    discard landed.
    """
    golden = json.loads(GOLDEN.read_text())["xbar_dup_watchdog"]
    assert golden["duplicate_rsps"] > 0, "seed produced no duplicates; test pins nothing"
    assert _duplicated_profile() == golden


def test_fault_spill_under_deep_queue():
    """Mid-run fault attach: vector engine spills, run still completes.

    The engine starts columnar (no faults at construction), a fault
    plan lands while dozens of requests are in flight, the dynamic
    gate flips and the flight table spills to scratch flights — and
    every response is still delivered exactly once.
    """
    if "vector" not in XBARS:
        pytest.skip("numpy not installed")
    sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar="vector"))
    engine = HostEngine(sim)
    engine.add_threads(32, lambda ctx: mixed_program(ctx, ops=8))

    xbar = sim.devices[0].xbar
    fired = {"done": False}
    orig_clock = sim.clock

    def clock_with_fault():
        orig_clock()
        if not fired["done"] and sim.cycle >= 6:
            # vault_stall at probability 0.0: flips the dynamic gate
            # (and the vector engine's mode) without perturbing timing.
            assert xbar.mode == "vector"
            sim.attach_faults(
                FaultPlan(specs=(FaultSpec.parse("vault_stall=0.0"),), seed=11)
            )
            fired["done"] = True

    sim.clock = clock_with_fault
    result = engine.run()
    sim.clock = orig_clock

    assert fired["done"] and xbar.mode == "scalar"
    assert sim.stats()["outstanding"] == 0
    assert all(t.responses == sum(1 for i in range(8) if (t.tid + i) % 4 != 2)
               for t in result.threads)
    # The spilled run computes the same memory state as a clean scalar
    # run of the same workload.
    ref = HMCSim(HMCConfig.cfg_4link_4gb(xbar="queued"))
    ref_engine = HostEngine(ref)
    ref_engine.add_threads(32, lambda ctx: mixed_program(ctx, ops=8))
    ref_engine.run()
    for tid in range(32):
        base = 0x4000 + tid * 0x400
        for i in range(8):
            assert sim.mem_read(base + i * 64, 16) == ref.mem_read(
                base + i * 64, 16
            )


if __name__ == "__main__":  # pragma: no cover - golden capture
    GOLDEN.write_text(json.dumps(_capture(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
