"""Engine determinism-parity suite.

The active-set cycle engine (idle skipping, precomputed routing,
allocation-free queue scans) is a pure wall-clock optimisation: it must
not change a single simulated result.  These tests pin that contract
against ``golden_engine_parity.json``, whose signatures were captured
from the pre-active-set seed engine — cycle counts, stall counters,
queue high-water marks, receive orders, and memory digests all have to
match bit-for-bit.

Regenerate the goldens with ``scripts/capture_parity_golden.py`` only
when a change is *intended* to alter simulated behaviour, and say so in
the PR description.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.hmc.timing import HMCTimingModel

from .parity_workloads import WORKLOADS

GOLDEN_PATH = Path(__file__).parent / "golden_engine_parity.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_engine_parity(workload: str, golden: dict) -> None:
    """Every workload signature matches the seed-engine golden exactly."""
    got = json.loads(json.dumps(WORKLOADS[workload]()))
    expected = golden[workload]
    assert got == expected, (
        f"{workload}: simulated behaviour diverged from the seed engine; "
        f"see the key-by-key diff above"
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_vector_engine_parity(workload: str, golden: dict) -> None:
    """The vector composition reproduces the *same* seed goldens.

    Stronger than vector-specific goldens: ``xbar="vector"`` must be
    bit-identical to the object engine on every signature field —
    cycle counts, queue counters, high-water marks, memory digests.
    The two-cube workload rides along deliberately: it fails the
    vector gate (multi-cube), so it pins the scalar-fallback path
    against the goldens too.
    """
    pytest.importorskip("numpy")
    got = json.loads(json.dumps(WORKLOADS[workload](xbar="vector")))
    expected = golden[workload]
    assert got == expected, (
        f"{workload}: the vector engine diverged from the seed goldens; "
        f"see the key-by-key diff above"
    )


def test_golden_covers_all_workloads(golden: dict) -> None:
    assert sorted(golden) == sorted(WORKLOADS)


def _timed_sim() -> HMCSim:
    # Non-default parameters no seam key names: set on the built context.
    sim = HMCSim(HMCConfig.cfg_4link_4gb())
    sim.timing = HMCTimingModel(t_cl=3, t_rcd=4, t_rp=5)
    return sim


def _send_and_drain(sim: HMCSim, addr: int, tag: int) -> None:
    pkt = sim.build_memrequest(hmc_rqst_t.WR16, addr, tag, data=bytes(16))
    sim.send(pkt)
    while sim.recv() is None:
        sim.clock()


def test_idle_fast_forward_preserves_bank_timing() -> None:
    """``clock(N)`` fast-forward equals N single-stepped clocks.

    The idle fast-forward advances ``_cycle`` without running the
    device phases.  ``Bank.occupy`` windows are anchored to absolute
    cycles, so a bank left busy past the drain point must still gate a
    later request identically whether the idle gap was fast-forwarded
    in one ``clock(N)`` call or stepped cycle by cycle.
    """
    fast, slow = _timed_sim(), _timed_sim()
    addr = 0x40  # one bank, revisited with a row miss below

    _send_and_drain(fast, addr, tag=1)
    _send_and_drain(slow, addr, tag=1)
    assert fast.cycle == slow.cycle

    gap = 50
    fast.clock(gap)  # quiescent: takes the fast-forward path
    for _ in range(gap):  # never quiescent-checked across a batch
        slow.clock()
    assert fast.cycle == slow.cycle

    # A different row in the same bank: the precharge+activate window
    # from the timing model must land on the same absolute cycles.
    far = addr + (1 << 20)
    _send_and_drain(fast, far, tag=2)
    _send_and_drain(slow, far, tag=2)
    assert fast.cycle == slow.cycle

    fast_banks = [
        (b.accesses, b.row_hits, b.row_misses, b.open_row, b.busy_until)
        for v in fast.devices[0].vaults
        for b in v.banks
    ]
    slow_banks = [
        (b.accesses, b.row_hits, b.row_misses, b.open_row, b.busy_until)
        for v in slow.devices[0].vaults
        for b in v.banks
    ]
    assert fast_banks == slow_banks
    assert fast.stats() == slow.stats()
