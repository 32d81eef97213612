"""Deep-queue equivalence: the columnar path at depth, vs the scalar engine.

The batch executor only pays when the flight table is deep — hundreds
of ready rows per cycle, partitioned by command class and executed as
columnar passes.  The unit parity suites drive it at small depths;
this test drives both engines with the same depth-gated open loop (256
requests held in flight, mixed command classes: reads and writes of
several block sizes, posted writes, AMO families) and requires the
*entire* observable outcome to match bit-for-bit: simulated cycles,
the full aggregate stats tree (queue counters, high-water marks,
retire counts), per-request latencies in completion order, and a
digest of the touched memory.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.packet import RequestPacket
from repro.hmc.sim import HMCSim
from repro.host.openloop import OpenLoopStats, drive_open_loop

pytestmark = pytest.mark.skipif(
    not pytest.importorskip("importlib.util").find_spec("numpy"),
    reason="numpy not installed",
)

_M64 = (1 << 64) - 1
FOOTPRINT = 1 << 20
COUNT = 4_000
DEPTH = 256

#: (command, data bytes, address alignment) — one entry per class the
#: batch executor partitions on, plus posted variants.
MIX = (
    (hmc_rqst_t.RD16, 0, 16),
    (hmc_rqst_t.RD64, 0, 64),
    (hmc_rqst_t.WR16, 16, 16),
    (hmc_rqst_t.WR32, 32, 32),
    (hmc_rqst_t.P_WR16, 16, 16),
    (hmc_rqst_t.TWOADD8, 16, 16),
    (hmc_rqst_t.ADD16, 16, 16),
    (hmc_rqst_t.P_2ADD8, 16, 16),
    (hmc_rqst_t.INC8, 0, 8),
    (hmc_rqst_t.XOR16, 16, 16),
)


def _packets(mix=MIX, count=COUNT):
    state = 0xDEC0DE
    pkts = []
    for i in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) & _M64
        cmd, nbytes, align = mix[(state >> 16) % len(mix)]
        addr = ((state >> 24) % FOOTPRINT) & ~(align - 1)
        data = bytes((state >> s) & 0xFF for s in range(0, nbytes * 8, 8)) if nbytes else b""
        if nbytes:
            data = (data * ((nbytes // len(data)) + 1))[:nbytes]
        pkts.append(RequestPacket.build(cmd, addr, 0, data=data))
    return pkts


def _drive(sim: HMCSim, pkts, depth: int) -> OpenLoopStats:
    """Push prebuilt packets through a depth-gated open loop."""

    def build(idx, tag):
        pkt = pkts[idx]
        pkt.tag = tag
        return pkt

    stats = OpenLoopStats(
        config_name=sim.config.describe(),
        pattern="deep_queue",
        offered_rate=0.0,
        duration=1,
        injected=0,
        completed=0,
        backlogged=0,
        drain_cycles=0,
    )
    drive_open_loop(
        sim, stats, len(pkts), build, offered_rate=0.0, duration=0, depth=depth
    )
    return stats


def _run(xbar: str):
    sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar=xbar))
    stats = _drive(sim, _packets(), DEPTH)
    digest = hashlib.sha256(sim.mem_read(0, FOOTPRINT)).hexdigest()
    return sim, stats, digest


def test_columnar_execution_is_bit_identical_at_depth():
    sim_s, stats_s, mem_s = _run("queued")
    sim_v, stats_v, mem_v = _run("vector")
    assert sim_v.cycle == sim_s.cycle
    assert stats_v.injected == stats_s.injected == COUNT
    assert stats_v.completed == stats_s.completed
    # Latencies in completion order: pins both *what* completed and
    # *when*, per request, across the whole run.
    assert stats_v.latencies == stats_s.latencies
    assert mem_v == mem_s
    # The full stats tree — queue pushes/pops/stalls/high-water,
    # retired responses, flow counters — must agree key by key.
    assert sim_v.stats() == sim_s.stats()


def test_deep_queue_actually_reaches_depth():
    # Guard the test's own premise: the run holds DEPTH requests in
    # flight (otherwise this file pins nothing the unit suites don't).
    _, stats, _ = _run("queued")
    assert stats.depth == DEPTH
    # With DEPTH requests queued ahead, latency is bounded below by
    # depth over the aggregate link retire bandwidth.
    cfg = HMCConfig.cfg_4link_4gb()
    assert max(stats.latencies) >= DEPTH // (cfg.num_links * cfg.link_rsp_rate)


#: The depth axis ``drive_open_loop(depth=)`` is used at, shallow to deep.
DEPTHS = (8, 64, 256, 1024)


def _twoadd8_cycles(xbar: str, depth: int, count: int = 3_000) -> int:
    """Simulated cycles of a uniform TWOADD8 stream (one command class,
    the widest columnar batches) on the 8-link device."""
    pkts = _packets(mix=((hmc_rqst_t.TWOADD8, 16, 16),), count=count)
    sim = HMCSim(HMCConfig.cfg_8link_8gb(xbar=xbar, link_rsp_rate=16))
    assert _drive(sim, pkts, depth).completed == count
    return sim.cycle


@pytest.mark.parametrize("depth", DEPTHS)
def test_datapaths_simulate_identical_cycles_at_every_depth(depth):
    assert _twoadd8_cycles("vector", depth) == _twoadd8_cycles("queued", depth)


def test_simulated_cycles_fall_monotonically_with_depth():
    # More overlap, same work.
    cycles = [_twoadd8_cycles("queued", depth) for depth in DEPTHS]
    assert all(a > b for a, b in zip(cycles, cycles[1:])), cycles
