"""Integration tests with every optional model attached at once, plus
cross-cutting invariants (token conservation, poison propagation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.flow import ErrorModel, LinkFlowModel
from repro.hmc.sim import HMCSim
from tests.conftest import roundtrip, run_workload, with_flow


class TestAllModelsTogether:
    @pytest.fixture
    def full_sim(self):
        return with_flow(
            HMCConfig.cfg_4link_4gb(timing="open_page", power="energy"),
            LinkFlowModel(
                tokens_per_link=64,
                retry_latency=4,
                errors=ErrorModel(flit_error_rate=0.2, seed=42),
            ),
        )

    def test_mixed_traffic_completes_correctly(self, full_sim):
        sim = full_sim
        n = 12
        for tag in range(n):
            pkt = sim.build_memrequest(
                hmc_rqst_t.WR16, tag * 16, tag, data=bytes([tag + 1]) * 16
            )
            while sim.send(pkt, link=tag % 4).name != "OK":
                sim.clock()
        sim.drain(max_cycles=10_000)
        for tag in range(n):
            assert sim.mem_read(tag * 16, 16) == bytes([tag + 1]) * 16
        assert sim.power_report.total_pj > 0

    def test_mutex_workload_under_all_models(self, full_sim):
        from repro.cmc_ops.mutex import load_mutex_ops

        sim = full_sim
        load_mutex_ops(sim)
        stats = run_workload(
            "mutex", HMCConfig.cfg_4link_4gb(), threads=12, sim=sim, max_cycles=100_000
        )
        # Slower than the clean baseline (timing + retries), still correct.
        assert stats.min_cycle >= 6
        assert stats.cmc_executions >= 24

    def test_cmc_energy_accounted(self, full_sim):
        from repro.cmc_ops.mutex import build_lock, init_lock, load_mutex_ops

        sim = full_sim
        load_mutex_ops(sim)
        init_lock(sim, 0x40)
        pkt = build_lock(sim, 0x40, 1, tid=1)
        while sim.send(pkt).name != "OK":
            sim.clock()
        sim.drain(max_cycles=10_000)
        assert sim.power_report.ops.get("hmc_lock") == 1


class TestPoisonBit:
    def test_poisoned_request_sets_dinv(self, sim, do_roundtrip):
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, 1)
        pkt.pb = 1
        rsp = do_roundtrip(sim, pkt)
        assert rsp.dinv == 1

    def test_clean_request_clears_dinv(self, sim, do_roundtrip):
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        assert rsp.dinv == 0

    def test_poison_travels_on_the_wire(self, sim, do_roundtrip):
        from repro.hmc.packet import ResponsePacket

        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, 1)
        pkt.pb = 1
        rsp = do_roundtrip(sim, pkt)
        assert ResponsePacket.decode(rsp.encode()).dinv == 1


class TestTokenConservation:
    @given(
        sizes=st.lists(st.sampled_from([1, 2, 5, 9, 17]), min_size=1, max_size=30)
    )
    @settings(max_examples=30, deadline=None)
    def test_tokens_conserved_property(self, sizes):
        """After acquire/transmit/ack cycles in any interleaving, the
        credit pool returns to its initial level — no token leaks."""
        fm = LinkFlowModel(tokens_per_link=64)
        outstanding = []
        for flits in sizes:
            if fm.try_acquire(0, 0, flits):
                seq = fm.on_transmit(0, 0, flits, f"pkt{flits}")
                outstanding.append(seq)
            if len(outstanding) > 2:
                fm.acknowledge(0, 0, outstanding.pop(0))
        for seq in outstanding:
            fm.acknowledge(0, 0, seq)
        assert fm.state(0, 0).tokens == 64
        assert fm.outstanding(0, 0) == 0

    def test_tokens_conserved_through_pipeline(self):
        """End-to-end: after a drained workload, every link's credit
        pool is back at its initial level."""
        flow = LinkFlowModel(tokens_per_link=32, retry_latency=2,
                             errors=ErrorModel(flit_error_rate=0.25, seed=9))
        sim = with_flow(HMCConfig.cfg_4link_4gb(), flow)
        for tag in range(16):
            pkt = sim.build_memrequest(
                hmc_rqst_t.WR64, tag * 64, tag, data=bytes(64)
            )
            while sim.send(pkt, link=tag % 4).name != "OK":
                sim.clock()
        sim.drain(max_cycles=10_000)
        for link in range(4):
            assert flow.state(0, link).tokens == 32, f"link {link} leaked tokens"
            assert flow.outstanding(0, link) == 0


class TestFreeAndRebuild:
    def test_context_rebuild_after_free(self, cfg4):
        sim = HMCSim(cfg4)
        sim.load_cmc("repro.cmc_ops.lock")
        roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        sim.free()
        sim2 = HMCSim(cfg4)
        rsp = roundtrip(sim2, sim2.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        assert rsp.data == bytes(16)

    def test_two_contexts_are_isolated(self, cfg4):
        a = HMCSim(cfg4)
        b = HMCSim(cfg4)
        a.mem_write(0, b"A" * 16)
        assert b.mem_read(0, 16) == bytes(16)
        a.load_cmc("repro.cmc_ops.lock")
        assert len(b.cmc) == 0
