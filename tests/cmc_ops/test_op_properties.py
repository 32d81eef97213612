"""Property-based tests for the demonstration CMC operations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.hmc.commands import hmc_rqst_t
from tests.conftest import roundtrip, run_workload

_M64 = (1 << 64) - 1


def u64(v):
    return (v & _M64).to_bytes(8, "little")


def fresh_sim(*plugins):
    sim = HMCSim(HMCConfig.cfg_4link_4gb())
    for p in plugins:
        sim.load_cmc(p)
    return sim


class TestFadd64Properties:
    @given(start=st.integers(0, _M64), adds=st.lists(st.integers(0, _M64), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_sum_wraps_like_uint64(self, start, adds):
        sim = fresh_sim("repro.cmc_ops.fadd64")
        sim.mem_write(0x100, u64(start))
        returned = []
        for tag, a in enumerate(adds):
            pkt = sim.build_memrequest(hmc_rqst_t.CMC04, 0x100, tag % 512, data=u64(a) + bytes(8))
            rsp = roundtrip(sim, pkt, link=tag % 4)
            returned.append(int.from_bytes(rsp.data[:8], "little"))
        # Returned values are the running prefix sums (fetch semantics)...
        acc = start
        for got, a in zip(returned, adds):
            assert got == acc
            acc = (acc + a) & _M64
        # ...and memory holds the wrapped total.
        assert sim.mem_read(0x100, 8) == u64(acc)


class TestBloomProperties:
    @given(keys=st.lists(st.integers(0, _M64), min_size=1, max_size=12, unique=True))
    @settings(max_examples=15, deadline=None)
    def test_no_false_negatives(self, keys):
        """Re-inserting any previously inserted key always reports
        'possibly present' — bloom filters never false-negative."""
        sim = fresh_sim("repro.cmc_ops.bloom")
        for i, k in enumerate(keys):
            pkt = sim.build_memrequest(hmc_rqst_t.CMC06, 0x1000, i, data=u64(k) + bytes(8))
            roundtrip(sim, pkt, link=i % 4)
        for i, k in enumerate(keys):
            pkt = sim.build_memrequest(
                hmc_rqst_t.CMC06, 0x1000, 100 + i, data=u64(k) + bytes(8)
            )
            rsp = roundtrip(sim, pkt, link=i % 4)
            assert int.from_bytes(rsp.data[:8], "little") == 1, f"key {k:#x}"

    @given(keys=st.lists(st.integers(0, _M64), min_size=1, max_size=16, unique=True))
    @settings(max_examples=10, deadline=None)
    def test_filter_bits_monotone(self, keys):
        """Inserting keys only ever sets bits, never clears them."""
        sim = fresh_sim("repro.cmc_ops.bloom")
        prev = 0
        for i, k in enumerate(keys):
            pkt = sim.build_memrequest(hmc_rqst_t.CMC06, 0x1000, i, data=u64(k) + bytes(8))
            roundtrip(sim, pkt, link=i % 4)
            cur = int.from_bytes(sim.mem_read(0x1000, 64), "little")
            assert cur & prev == prev
            prev = cur


class TestMinMaxProperties:
    @given(start=st.integers(-(2**62), 2**62), values=st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_amin_amax_converge_to_extremes(self, start, values):
        sim = fresh_sim("repro.cmc_ops.amin64", "repro.cmc_ops.amax64")
        sim.mem_write(0x100, u64(start))
        sim.mem_write(0x200, u64(start))
        for tag, v in enumerate(values):
            pkt = sim.build_memrequest(hmc_rqst_t.CMC07, 0x100, tag % 512, data=u64(v) + bytes(8))
            roundtrip(sim, pkt, link=tag % 4)
            pkt = sim.build_memrequest(hmc_rqst_t.CMC37, 0x200, (tag + 256) % 512, data=u64(v) + bytes(8))
            roundtrip(sim, pkt, link=tag % 4)
        lo = min([start] + values)
        hi = max([start] + values)
        assert int.from_bytes(sim.mem_read(0x100, 8), "little", signed=True) == lo
        assert int.from_bytes(sim.mem_read(0x200, 8), "little", signed=True) == hi


class TestDeterminism:
    def test_mutex_workload_deterministic(self):
        """Two identical runs produce byte-identical statistics — the
        reproducibility property every result in EXPERIMENTS.md rests on."""
        cfg = HMCConfig.cfg_4link_4gb()
        a = run_workload("mutex", cfg, threads=37)
        b = run_workload("mutex", cfg, threads=37)
        assert (a.min_cycle, a.max_cycle, a.avg_cycle, a.total_cycles) == (
            b.min_cycle,
            b.max_cycle,
            b.avg_cycle,
            b.total_cycles,
        )

    def test_gups_deterministic(self):
        cfg = HMCConfig.cfg_4link_4gb()
        a = run_workload("gups", cfg, threads=4, updates_per_thread=8)
        b = run_workload("gups", cfg, threads=4, updates_per_thread=8)
        assert a.cycles == b.cycles and a.requests == b.requests

    def test_open_loop_deterministic(self):
        from repro.host.openloop import run_open_loop

        cfg = HMCConfig.cfg_8link_8gb()
        a = run_open_loop(cfg, offered_rate=10.0, duration=128)
        b = run_open_loop(cfg, offered_rate=10.0, duration=128)
        assert a.latencies == b.latencies
