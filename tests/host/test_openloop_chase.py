"""Open-loop injector and pointer-chase kernel tests."""

from dataclasses import replace

import pytest

from repro.faults.plan import FaultPlan
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.kernels.pointer_chase import build_chain
from tests.conftest import run_workload
from repro.host.openloop import OpenLoopStats, drive_open_loop, run_open_loop


@pytest.fixture(scope="module")
def cfg():
    return HMCConfig.cfg_4link_4gb()


class TestOpenLoop:
    def test_low_load_all_completes(self, cfg):
        s = run_open_loop(cfg, offered_rate=1.0, duration=128)
        assert s.injected == s.completed
        assert s.backlogged == 0
        assert not s.saturated

    def test_low_load_latency_is_base_rtt(self, cfg):
        s = run_open_loop(cfg, offered_rate=0.5, duration=128)
        # Uncontended reads retire 3 cycles after injection; the
        # latency sample (recv cycle - inject cycle) measures 3.
        assert s.mean_latency == pytest.approx(3.0)
        assert s.p99_latency == 3

    def test_latency_grows_with_load(self, cfg):
        # 4 links x link_rsp_rate 4 = 16 responses/cycle: offering 24
        # pushes past the knee, so queueing delay must appear.
        lo = run_open_loop(cfg, offered_rate=1.0, duration=256)
        hi = run_open_loop(cfg, offered_rate=24.0, duration=256)
        assert hi.mean_latency > lo.mean_latency

    def test_achieved_rate_caps_at_saturation(self, cfg):
        # link_rsp_rate=4 x 4 links = 16 responses/cycle is the hard
        # ceiling; offering more cannot raise the achieved rate.
        s = run_open_loop(cfg, offered_rate=32.0, duration=256)
        assert s.achieved_rate <= 16.5
        assert s.saturated

    def test_stride_pattern_deterministic(self, cfg):
        a = run_open_loop(cfg, offered_rate=2.0, duration=64, pattern="stride")
        b = run_open_loop(cfg, offered_rate=2.0, duration=64, pattern="stride")
        assert a.latencies == b.latencies

    def test_uniform_pattern_seed(self, cfg):
        a = run_open_loop(cfg, offered_rate=8.0, duration=64, seed=1)
        b = run_open_loop(cfg, offered_rate=8.0, duration=64, seed=2)
        # Different scatter -> (almost surely) different latency profile.
        assert a.injected == b.injected

    def test_fractional_rate(self, cfg):
        s = run_open_loop(cfg, offered_rate=0.25, duration=128)
        assert s.injected == pytest.approx(32, abs=2)

    def test_unknown_pattern(self, cfg):
        with pytest.raises(ValueError):
            run_open_loop(cfg, pattern="zigzag")

    def test_8link_sustains_more(self):
        s4 = run_open_loop(HMCConfig.cfg_4link_4gb(), offered_rate=24.0, duration=256)
        s8 = run_open_loop(HMCConfig.cfg_8link_8gb(), offered_rate=24.0, duration=256)
        assert s8.achieved_rate > s4.achieved_rate


class TestPointerChase:
    def test_baseline_is_three_cycles_per_hop(self, cfg):
        s = run_workload("chase", cfg, length=32)
        assert s.order_correct
        assert s.cycles_per_hop == pytest.approx(3.0)

    def test_scatter_preserves_order(self, cfg):
        s = run_workload("chase", cfg, length=64, scatter=True)
        assert s.order_correct

    def test_scatter_same_cost_without_timing(self, cfg):
        # The baseline model has no row buffer: layout cannot matter.
        seq = run_workload("chase", cfg, length=64, scatter=False)
        sca = run_workload("chase", cfg, length=64, scatter=True)
        assert seq.cycles == sca.cycles

    def test_timing_model_penalizes_scatter(self, cfg):
        timed = replace(cfg, timing="open_page")
        seq = run_workload("chase", timed, length=64)
        sca = run_workload("chase", timed, length=64, scatter=True)
        # Sequential layout gets row hits; scattered pays activates.
        assert seq.cycles <= sca.cycles

    def test_build_chain_terminates(self, cfg):
        from repro.hmc.sim import HMCSim

        sim = HMCSim(cfg)
        head = build_chain(sim, 1 << 20, 4)
        hops = 0
        addr = head
        while addr and hops < 10:
            addr = int.from_bytes(sim.mem_read(addr, 8), "little")
            hops += 1
        assert hops == 4


class TestInterleaveOption:
    def test_bank_interleave_bijective(self):
        from repro.hmc.addrmap import AddressMap

        amap = AddressMap(HMCConfig.cfg_4link_4gb(addr_interleave="bank"))
        for addr in (0, 64, 4096, 123456, (4 << 30) - 64):
            d = amap.decode(addr)
            assert amap.encode(d.vault, d.bank, d.row, d.offset, d.dev) == addr
            assert amap.vault_of(addr) == d.vault
            assert amap.bank_of(addr) == d.bank

    def test_bank_interleave_sweeps_banks_first(self):
        from repro.hmc.addrmap import AddressMap

        amap = AddressMap(HMCConfig.cfg_4link_4gb(addr_interleave="bank"))
        assert amap.decode(0).bank == 0
        assert amap.decode(64).bank == 1
        assert amap.decode(64).vault == 0
        assert amap.decode(64 * 16).vault == 1  # after all 16 banks

    def test_invalid_interleave_rejected(self):
        from repro.errors import HMCConfigError

        with pytest.raises(HMCConfigError):
            HMCConfig(addr_interleave="row")

    def test_stream_spreads_differently(self):
        """Stride-1 traffic concentrates on one vault under bank
        interleave and spreads under vault interleave."""
        from repro.hmc.sim import HMCSim
        from repro.hmc.commands import hmc_rqst_t

        loads = {}
        for mode in ("vault", "bank"):
            sim = HMCSim(HMCConfig.cfg_4link_4gb(addr_interleave=mode))
            for i in range(16):
                sim.send(sim.build_memrequest(hmc_rqst_t.RD16, i * 64, i),
                         link=i % 4)
            sim.drain()
            processed = [v.processed for v in sim.devices[0].vaults]
            loads[mode] = sum(1 for p in processed if p > 0)
        assert loads["vault"] == 16  # 16 distinct vaults touched
        assert loads["bank"] == 1  # all 16 blocks in vault 0's banks


class TestZeroLengthWindow:
    """Regression: a zero-length injection window must report a rate of
    0.0, not raise ZeroDivisionError (which also poisoned ``saturated``)."""

    def test_achieved_rate_zero_duration(self):
        from repro.host.openloop import OpenLoopStats

        s = OpenLoopStats(
            config_name="x", pattern="uniform", offered_rate=2.0,
            duration=0, injected=0, completed=0, backlogged=0,
            drain_cycles=0,
        )
        assert s.achieved_rate == 0.0
        assert s.saturated is True  # offered load, nothing achieved

    def test_run_open_loop_zero_duration(self, cfg):
        s = run_open_loop(cfg, offered_rate=2.0, duration=0)
        assert s.achieved_rate == 0.0
        assert s.completed == 0
        assert s.saturated is True


class TestDepthGatedStream:
    """Regression: depth-gated injection ran until the stream was
    exhausted *or* ``max_drain`` cycles had passed, so a stream longer
    than that window was silently cut short (33 334 of 40 001 here)."""

    def test_whole_stream_is_injected(self, cfg):
        s = run_open_loop(cfg, offered_rate=40.0, duration=1000, depth=1)
        assert s.injected == s.completed == 40_001
        # One request in flight, three cycles per round trip.
        assert s.duration == 3 * 40_001 - 2

    def test_a_run_without_progress_stops_after_max_drain(self, cfg):
        # Every response is dropped: the one request in flight never
        # completes, so nothing is injected after it either.
        sim = HMCSim(cfg, faults=FaultPlan.parse(["xbar_drop=1.0"]))
        stats = OpenLoopStats(
            config_name="x", pattern="stuck", offered_rate=0.0, duration=1,
            injected=0, completed=0, backlogged=0, drain_cycles=0,
        )
        drive_open_loop(
            sim, stats, 8,
            lambda idx, tag: sim.build_memrequest(hmc_rqst_t.RD16, 0, tag),
            offered_rate=0.0, duration=0, depth=1, max_drain=50,
        )
        assert (stats.injected, stats.completed) == (1, 0)
        assert stats.duration == 51  # the injecting cycle + 50 idle ones
        assert stats.drain_cycles == 50
