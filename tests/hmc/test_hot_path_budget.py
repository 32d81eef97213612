"""Per-request call budget of the scalar datapath, and what it must not move.

The scalar path's cost is per request (ISSUE 14: ≈11.5 µs and 44
Python-level calls each on ``deep_queue`` before the predecoded-dispatch
rewrite), so the regression gate is a *count*, not a timing: each scenario runs under
``sys.setprofile`` and asserts that Python-level ``call`` events per
simulated request stay under a ceiling.  A count repeats exactly on any
host; a ceiling a few calls above the measured value catches a hop that
creeps back in (a property, a wrapper pair, a per-request lookup
function) without pinning the exact frame layout.

The same runs pin what the optimisation must not move: ``sim.cycle``,
``sim.stats()`` and every queue's ``pushes/pops/stalls/high_water``
equal ``golden_hot_path.json``, which was captured from the commit
*before* the rewrite (``python tests/hmc/test_hot_path_budget.py``
regenerates it; only after an intended change of simulated behaviour).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.packet import RequestPacket
from repro.hmc.sim import HMCSim
from repro.host.openloop import OpenLoopStats, drive_open_loop
from repro.workloads.registry import WORKLOADS

GOLDEN = Path(__file__).with_name("golden_hot_path.json")


def _open_loop(sim: HMCSim, packets, depth: int):
    """Hold ``packets`` ``depth`` deep on ``sim`` until all complete."""

    def build(idx: int, tag: int) -> RequestPacket:
        pkt = packets[idx]
        pkt.tag = tag
        return pkt

    stats = OpenLoopStats(
        config_name=sim.config.describe(), pattern="deep_queue",
        offered_rate=0.0, duration=1, injected=0, completed=0,
        backlogged=0, drain_cycles=0,
    )

    def drive() -> None:
        drive_open_loop(
            sim, stats, len(packets), build,
            offered_rate=0.0, duration=0, depth=depth,
        )
        assert stats.completed == len(packets)

    return sim, drive


def _deep_queue(**overrides):
    """perfbench's ``deep_queue`` at a tenth of its size: 20 000
    prebuilt TWOADD8 held 256 deep on 8Link-8GB, 16 responses/link/cycle."""
    rng = random.Random(14)
    blocks = (1 << 22) // 16
    payload = bytes(range(16))
    packets = [
        RequestPacket.build(
            hmc_rqst_t.TWOADD8, rng.randrange(blocks) * 16, 0, data=payload
        )
        for _ in range(20_000)
    ]
    sim = HMCSim(HMCConfig.cfg_8link_8gb(link_rsp_rate=16, **overrides))
    return _open_loop(sim, packets, 256)


def _timed_parking():
    """``round_robin`` under the DRAM timing model with the response
    path the bottleneck: 4 000 RD16 over two vaults' banks, crossbar
    queues 4 deep retiring one response per link per cycle, so service
    completions arrive in bursts the response queue refuses and
    ``_pending_rsp`` parks."""
    rng = random.Random(24)
    sim = HMCSim(
        HMCConfig.cfg_4link_4gb(
            xbar_depth=4, link_rsp_rate=1, vault_scheduler="round_robin",
            timing="open_page",
        )
    )
    addrmap = sim.addrmap
    packets = [
        RequestPacket.build(
            hmc_rqst_t.RD16,
            addrmap.encode(
                vault=rng.randrange(2), bank=rng.randrange(16),
                row=rng.randrange(4),
            ),
            0,
        )
        for _ in range(4_000)
    ]
    sim, drive = _open_loop(sim, packets, 64)

    def drive_and_check() -> None:
        drive()
        vaults = sim.devices[0].vaults
        assert sum(v.response_stalls for v in vaults) > 0  # it parked
        assert sum(v.bank_conflicts for v in vaults) > 0  # banks held

    return sim, drive_and_check


def _kernel(name: str, params: dict, **overrides):
    """A registered kernel on 4Link-4GB, brought up the way
    ``WorkloadFrontend.run`` does; only the engine run is the drive."""
    config = HMCConfig.cfg_4link_4gb(**overrides)
    frontend = WORKLOADS.get(name)
    resolved = frontend.resolve_params(params)
    sim = frontend.new_sim(config, resolved)
    frontend.prepare(sim, resolved)
    engine = frontend.new_engine(sim, resolved, None)
    for factory in frontend.build(sim, resolved):
        engine.add_thread(factory)

    def drive() -> None:
        result = engine.run()
        frontend.finish(sim, resolved)
        assert frontend.verify(sim, resolved, result) is not False

    return sim, drive


#: scenario -> (set-up returning ``(sim, drive)``, ceiling on Python-level
#: calls per request inside ``drive``).  Measured at the parent commit ->
#: after the predecoded-dispatch rewrite: deep_queue 44.1 -> 12.2 (ISSUE
#: 14 asked for <= 24), mutex 72.6 -> 50.8, stream 45.1 -> 27.1.  The
#: kernel rows are mostly the host engine's thread protocol and packet
#: build, which the rewrite did not touch; their ceilings guard the
#: CMC and RD64/WR64 execute arms and the send/retire hops they share
#: with deep_queue.  The ``rr_`` rows run the ``round_robin`` vault
#: scheduler, whose timing no oracle models: their golden entries were
#: captured at the commit before it became a visit order over the FIFO
#: scan body (ISSUE 24), where they measured 15.5 -> 13.0, 44.9 -> 42.3
#: and 42.9 -> 21.0.  ``mutex_contended`` is Algorithm 1 at 64 threads,
#: where trylock spins are 90% of the requests; its golden entry was
#: captured before the CMC round trip lost its per-request frames (the
#: lock plugins' word helpers, the keyword envelope around execute, the
#: second expects-a-response call), which took it from 27.7 to 17.1
#: calls/request, mutex 50.8 -> 36.9, rr_mutex 42.3 -> 28.9 and stream
#: 27.1 -> 25.3; those ceilings are the new counts + 2.  Building a live
#: request as one table read and one constructor call (the ``ThreadCtx``
#: builders straight to ``RequestPacket.build``, no frame per element in
#: the triad or the atomic unit) took stream 25.3 -> 15.0 and the
#: 16-thread XOR16 GUPS row, whose golden entry was captured before it,
#: 34.5 -> 21.5; their ceilings are the new counts + 2.  Computing each
#: atomic in place on its resident page (no ``execute_amo`` wrapper, no
#: ``MemoryView.read``/``write`` pair), a scan's services resolved without
#: a property and a function frame, and ``drive_open_loop`` answering
#: expects-a-response from the memo took deep_queue 12.2 -> 7.8,
#: rr_deep_queue 13.0 -> 8.5 and gups_atomic 21.5 -> 16.0 (every golden
#: entry unchanged); those three ceilings are the new counts + 1.5.
_RR = {"vault_scheduler": "round_robin"}
SCENARIOS = {
    "deep_queue": (_deep_queue, 9.3),
    "mutex": (lambda: _kernel("mutex", {"threads": 8}), 39.0),
    "mutex_contended": (lambda: _kernel("mutex", {"threads": 64}), 19.0),
    "stream": (
        lambda: _kernel("stream", {"threads": 16, "blocks_per_thread": 64}),
        17.0,
    ),
    "gups_atomic": (
        lambda: _kernel(
            "gups", {"threads": 16, "updates_per_thread": 64, "atomic": True}
        ),
        17.5,
    ),
    "rr_deep_queue": (lambda: _deep_queue(**_RR), 10.0),
    "rr_mutex": (lambda: _kernel("mutex", {"threads": 8}, **_RR), 31.0),
    "rr_timed_parking": (_timed_parking, 24.0),
}


def _count_calls(fn):
    """Run ``fn`` under ``sys.setprofile``; return (result, Python-level
    ``call`` events).  C-level calls arrive as ``c_call`` and are not
    counted: the budget is about interpreter frames."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, calls


def _simulated(sim: HMCSim) -> dict:
    """Everything the rewrite must leave bit-identical."""
    return {
        "cycle": sim.cycle,
        # Carries every queue's pushes/pops/stalls/high_water per device.
        "stats": sim.stats(),
        "banks": [
            [[b.accesses, b.conflicts] for b in v.banks]
            for d in sim.devices
            for v in d.vaults
        ],
    }


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_call_budget_and_simulated_identity(scenario):
    setup, ceiling = SCENARIOS[scenario]
    sim, drive = setup()
    _, calls = _count_calls(drive)
    per_request = calls / sim.sent_rqsts
    assert per_request <= ceiling, (
        f"{scenario}: {per_request:.1f} Python-level calls per request "
        f"({calls} calls / {sim.sent_rqsts} requests), budget {ceiling}"
    )
    golden = json.loads(GOLDEN.read_text())[scenario]
    # Through JSON so tuple/list and int-key differences cannot matter.
    assert json.loads(json.dumps(_simulated(sim))) == golden


if __name__ == "__main__":
    out = {}
    for name, (setup, _ceiling) in sorted(SCENARIOS.items()):
        sim, drive = setup()
        _, calls = _count_calls(drive)
        out[name] = _simulated(sim)
        print(
            f"{name}: {calls / sim.sent_rqsts:.1f} calls/request "
            f"({calls} / {sim.sent_rqsts}), cycle {sim.cycle}"
        )
    if "--print-only" not in sys.argv:
        GOLDEN.write_text(
            "{\n"
            + ",\n".join(
                f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(out.items())
            )
            + "\n}\n"
        )
