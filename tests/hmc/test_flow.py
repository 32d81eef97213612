"""Link-layer flow control and retry tests."""

import pytest

from repro.errors import HMCStatus
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.flow import ErrorModel, LinkFlowModel
from repro.hmc.sim import HMCSim
from tests.conftest import with_flow


class TestErrorModel:
    def test_zero_rate_never_corrupts(self):
        em = ErrorModel(flit_error_rate=0.0)
        assert not any(em.corrupts(i, 17) for i in range(1000))

    def test_one_rate_always_corrupts(self):
        em = ErrorModel(flit_error_rate=1.0)
        assert all(em.corrupts(i, 1) for i in range(100))

    def test_deterministic(self):
        a = ErrorModel(flit_error_rate=0.3, seed=7)
        b = ErrorModel(flit_error_rate=0.3, seed=7)
        draws = [(a.corrupts(i, 2), b.corrupts(i, 2)) for i in range(200)]
        assert all(x == y for x, y in draws)

    def test_seed_changes_sequence(self):
        a = ErrorModel(flit_error_rate=0.3, seed=7)
        b = ErrorModel(flit_error_rate=0.3, seed=8)
        assert [a.corrupts(i, 2) for i in range(200)] != [
            b.corrupts(i, 2) for i in range(200)
        ]

    def test_rate_roughly_respected(self):
        em = ErrorModel(flit_error_rate=0.1, seed=3)
        hits = sum(em.corrupts(i, 1) for i in range(2000))
        assert 100 < hits < 320  # ~200 expected

    def test_longer_packets_more_likely_corrupted(self):
        em = ErrorModel(flit_error_rate=0.05, seed=11)
        short = sum(em.corrupts(i, 1) for i in range(2000))
        long = sum(em.corrupts(i, 17) for i in range(2000))
        assert long > short


class TestTokenAccounting:
    def test_acquire_and_refund(self):
        fm = LinkFlowModel(tokens_per_link=20)
        assert fm.try_acquire(0, 0, 17)
        assert not fm.try_acquire(0, 0, 4)  # only 3 left
        assert fm.state(0, 0).token_stalls == 1
        fm.refund(0, 0, 17)
        assert fm.try_acquire(0, 0, 17)

    def test_acknowledge_returns_tokens(self):
        fm = LinkFlowModel(tokens_per_link=20)
        fm.try_acquire(0, 0, 10)
        seq = fm.on_transmit(0, 0, 10, "pkt")
        assert fm.outstanding(0, 0) == 1
        fm.acknowledge(0, 0, seq)
        assert fm.outstanding(0, 0) == 0
        assert fm.state(0, 0).tokens == 20

    def test_tokens_capped_at_initial(self):
        fm = LinkFlowModel(tokens_per_link=20)
        fm.refund(0, 0, 100)
        assert fm.state(0, 0).tokens == 20

    def test_per_link_isolation(self):
        fm = LinkFlowModel(tokens_per_link=17)
        assert fm.try_acquire(0, 0, 17)
        assert fm.try_acquire(0, 1, 17)  # separate credit pool

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFlowModel(tokens_per_link=16)
        with pytest.raises(ValueError):
            LinkFlowModel(retry_latency=0)


class TestRetryBuffer:
    def test_nack_schedules_replay(self):
        fm = LinkFlowModel(tokens_per_link=32, retry_latency=5)
        fm.try_acquire(0, 0, 2)
        seq = fm.on_transmit(0, 0, 2, "pkt")
        fm.negative_acknowledge(0, 0, seq, cycle=10, tag=7)
        assert fm.total_retries() == 1
        assert fm.due_replays(0, 0, 14) == []
        assert fm.due_replays(0, 0, 15) == ["pkt"]
        assert fm.due_replays(0, 0, 16) == []  # consumed

    def test_nack_returns_tokens(self):
        fm = LinkFlowModel(tokens_per_link=32)
        fm.try_acquire(0, 0, 2)
        seq = fm.on_transmit(0, 0, 2, "pkt")
        fm.negative_acknowledge(0, 0, seq, cycle=0, tag=0)
        assert fm.state(0, 0).tokens == 32

    def test_nack_unknown_seq_is_noop(self):
        fm = LinkFlowModel()
        fm.negative_acknowledge(0, 0, 99, cycle=0, tag=0)
        assert fm.total_retries() == 0

    def test_retry_events_recorded(self):
        fm = LinkFlowModel()
        fm.try_acquire(0, 2, 1)
        seq = fm.on_transmit(0, 2, 1, "p")
        fm.negative_acknowledge(0, 2, seq, cycle=42, tag=9)
        ev = fm.retry_events[0]
        assert (ev.cycle, ev.link, ev.tag, ev.frp) == (42, 2, 9, seq)


class TestFlowInPipeline:
    def test_clean_link_behaves_like_baseline(self, do_roundtrip):
        cfg = HMCConfig.cfg_4link_4gb()
        plain = HMCSim(cfg)
        flowed = with_flow(cfg, LinkFlowModel(tokens_per_link=64))
        for sim in (plain, flowed):
            rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
            assert rsp.retire_cycle - rsp.inject_cycle == 2
        assert flowed.flow.total_retries() == 0

    def test_token_stall_and_recovery(self):
        sim = with_flow(
            HMCConfig.cfg_4link_4gb(),
            LinkFlowModel(tokens_per_link=17),
        )
        # One WR256 consumes all 17 tokens.
        pkt = sim.build_memrequest(hmc_rqst_t.WR256, 0, 1, data=bytes(256))
        assert sim.send(pkt) is HMCStatus.OK
        pkt2 = sim.build_memrequest(hmc_rqst_t.RD16, 0x40, 2)
        assert sim.send(pkt2) is HMCStatus.STALL  # no credit left
        assert sim.flow.state(0, 0).token_stalls == 1
        sim.clock()  # xbar drains: tokens return
        assert sim.send(pkt2) is HMCStatus.OK
        sim.drain()
        assert sim.recvd_rsps == 0  # responses not yet collected
        got = 0
        while sim.recv() is not None:
            got += 1
        assert got == 2

    def test_corrupted_packets_are_replayed(self):
        sim = with_flow(
            HMCConfig.cfg_4link_4gb(),
            LinkFlowModel(
                tokens_per_link=64,
                retry_latency=4,
                errors=ErrorModel(flit_error_rate=0.5, seed=123),
            ),
        )
        n = 20
        for tag in range(n):
            pkt = sim.build_memrequest(hmc_rqst_t.WR16, tag * 16, tag, data=bytes([tag]) * 16)
            while sim.send(pkt) is not HMCStatus.OK:
                sim.clock()
        sim.drain(max_cycles=5000)
        got = 0
        while True:
            rsp = sim.recv()
            if rsp is None:
                break
            got += 1
        # Every request eventually completed despite CRC drops...
        assert got == n
        # ...and the data landed correctly.
        for tag in range(n):
            assert sim.mem_read(tag * 16, 16) == bytes([tag]) * 16
        # At a 50% FLIT error rate, retries must have occurred.
        assert sim.flow.total_retries() > 0

    def test_retry_latency_visible_in_completion_time(self):
        # A guaranteed-corrupted first transmission delays the response
        # by at least the retry latency.
        slow = with_flow(
            HMCConfig.cfg_4link_4gb(),
            LinkFlowModel(
                tokens_per_link=64,
                retry_latency=20,
                errors=ErrorModel(flit_error_rate=0.9, seed=5),
            ),
        )
        fast = HMCSim(HMCConfig.cfg_4link_4gb())
        for sim in (slow, fast):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
            cycles = sim.drain(max_cycles=5000)
        # Baseline drains in ~3 cycles; the retried path cannot.
        assert slow.cycle > fast.cycle

    def test_idle_accounts_for_pending_replays(self):
        sim = with_flow(
            HMCConfig.cfg_4link_4gb(),
            LinkFlowModel(
                tokens_per_link=64,
                retry_latency=50,
                errors=ErrorModel(flit_error_rate=1.0, seed=1),
            ),
        )
        # flit_error_rate=1.0 corrupts every transmission: the packet
        # replays forever, so the context is never idle.
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        sim.clock(10)
        assert not sim.idle()


class TestRetryBursts:
    def test_back_to_back_crc_burst_then_recovery(self):
        class _Burst:
            """Duck-typed error model: corrupt the first k transmissions."""

            def __init__(self, k):
                self.k = k

            def corrupts(self, sequence, flits):
                # The packed key carries the link's running seq in the
                # low 24 bits; each replay transmits with a fresh seq.
                return (sequence & 0xFFFFFF) < self.k

        k = 3
        sim = with_flow(
            HMCConfig.cfg_4link_4gb(),
            LinkFlowModel(tokens_per_link=64, retry_latency=2, errors=_Burst(k)),
        )
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        sim.drain(max_cycles=1000)
        tags = []
        while True:
            rsp = sim.recv()
            if rsp is None:
                break
            tags.append(rsp.tag)
        # k consecutive CRC errors, then delivery: one retry per error
        # and exactly one response.
        assert tags == [1]
        assert sim.flow.total_retries() == k

    def test_replay_waits_for_exhausted_tokens(self):
        fm = LinkFlowModel(tokens_per_link=17, retry_latency=2)
        fm.try_acquire(0, 0, 17)
        seq_a = fm.on_transmit(0, 0, 17, "A")
        fm.negative_acknowledge(0, 0, seq_a, cycle=0, tag=1)
        # B grabs the whole credit pool before A's replay comes due.
        assert fm.try_acquire(0, 0, 17)
        seq_b = fm.on_transmit(0, 0, 17, "B")
        [pkt] = fm.due_replays(0, 0, 2)
        assert pkt == "A"
        # No credit: the replay cannot re-enter the link yet and must
        # be rescheduled, not dropped.
        assert not fm.try_acquire(0, 0, 17)
        fm.schedule_replay(0, 0, 3, pkt)
        assert fm.has_pending_replays()
        # B is consumed, its tokens return, and the replay proceeds.
        fm.acknowledge(0, 0, seq_b)
        [pkt] = fm.due_replays(0, 0, 3)
        assert fm.try_acquire(0, 0, 17)
        seq_a2 = fm.on_transmit(0, 0, 17, pkt)
        assert seq_a2 != seq_a
        fm.acknowledge(0, 0, seq_a2)
        assert fm.outstanding(0, 0) == 0
        assert not fm.has_pending_replays()

    def test_large_sequence_numbers_stay_exactly_once(self):
        # The FRP field of the packed corruption key is 24 bits wide;
        # the retry buffer itself must keep packets distinct across
        # that boundary.
        fm = LinkFlowModel(tokens_per_link=32, retry_latency=1)
        fm.state(0, 0).next_seq = (1 << 24) - 1
        fm.try_acquire(0, 0, 2)
        s1 = fm.on_transmit(0, 0, 2, "edge")
        fm.try_acquire(0, 0, 2)
        s2 = fm.on_transmit(0, 0, 2, "wrapped")
        assert s2 == s1 + 1  # monotonic across the 24-bit boundary
        fm.negative_acknowledge(0, 0, s1, cycle=0, tag=0)
        fm.acknowledge(0, 0, s2)
        assert fm.due_replays(0, 0, 1) == ["edge"]
        assert fm.outstanding(0, 0) == 0
        assert fm.total_retries() == 1

    def test_sustained_burst_delivers_exactly_once(self):
        sim = with_flow(
            HMCConfig.cfg_4link_4gb(),
            LinkFlowModel(
                tokens_per_link=64,
                retry_latency=4,
                errors=ErrorModel(flit_error_rate=0.4, seed=99),
            ),
        )
        # Start every link near the 24-bit FRP boundary so the burst
        # straddles it.
        for link in range(4):
            sim.flow.state(0, link).next_seq = (1 << 24) - 2
        n = 30
        for tag in range(n):
            pkt = sim.build_memrequest(hmc_rqst_t.RD16, tag * 16, tag)
            while sim.send(pkt) is not HMCStatus.OK:
                sim.clock()
        sim.drain(max_cycles=10000)
        tags = []
        while True:
            rsp = sim.recv()
            if rsp is None:
                break
            tags.append(rsp.tag)
        # Despite a 40% FLIT error rate, every tag arrives exactly once.
        assert sorted(tags) == list(range(n))
        assert sim.flow.total_retries() > 0
