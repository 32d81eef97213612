"""TagWatchdog unit tests and host-engine resilience integration."""

import pytest

from repro.errors import FaultError, SimDeadlockError
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import TagWatchdog
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine


def read_program(ctx, addr=0, count=1):
    for i in range(count):
        yield ctx.read(addr + i * 64, 16)


def _faulty_sim(*specs, seed=0xD06):
    return HMCSim(
        HMCConfig.cfg_4link_4gb(), faults=FaultPlan.parse(list(specs), seed=seed)
    )


class TestWatchdogUnit:
    def test_validation(self):
        with pytest.raises(FaultError):
            TagWatchdog(timeout=0)
        with pytest.raises(FaultError):
            TagWatchdog(max_retries=-1)
        with pytest.raises(FaultError):
            TagWatchdog(backoff=0.5)

    def test_no_timeout_before_deadline(self):
        wd = TagWatchdog(timeout=10)
        wd.arm(3, "pkt", dev=0, link=0, cycle=100)
        assert wd.poll(109) == []
        assert len(wd) == 1

    def test_timeout_pops_entry(self):
        wd = TagWatchdog(timeout=10)
        wd.arm(3, "pkt", dev=0, link=1, cycle=100)
        [entry] = wd.poll(110)
        assert (entry.tag, entry.packet, entry.link) == (3, "pkt", 1)
        assert entry.attempts == 0
        assert wd.timeouts == 1
        assert len(wd) == 0

    def test_disarm_cancels(self):
        wd = TagWatchdog(timeout=10)
        wd.arm(3, "pkt", dev=0, link=0, cycle=0)
        wd.disarm(3)
        assert wd.poll(1000) == []

    def test_exponential_backoff_across_rearms(self):
        wd = TagWatchdog(timeout=10, backoff=2.0, max_retries=5)
        wd.arm(3, "pkt", dev=0, link=0, cycle=0)
        [e0] = wd.poll(10)  # first deadline: 0 + 10
        wd.arm(3, "pkt", dev=0, link=0, cycle=20)
        assert wd.poll(39) == []  # second deadline: 20 + 10*2
        [e1] = wd.poll(40)
        assert e1.attempts == 1
        wd.arm(3, "pkt", dev=0, link=0, cycle=50)
        assert wd.poll(89) == []  # third deadline: 50 + 10*4
        [e2] = wd.poll(90)
        assert e2.attempts == 2

    def test_disarm_resets_backoff(self):
        wd = TagWatchdog(timeout=10, backoff=2.0)
        wd.arm(3, "pkt", dev=0, link=0, cycle=0)
        wd.poll(10)
        wd.arm(3, "pkt", dev=0, link=0, cycle=20)
        wd.disarm(3)  # the response arrived: attempts forgotten
        wd.arm(3, "pkt", dev=0, link=0, cycle=100)
        [entry] = wd.poll(110)  # back to the base timeout
        assert entry.attempts == 0

    def test_rearm_supersedes_stale_heap_entry(self):
        wd = TagWatchdog(timeout=10)
        wd.arm(3, "old", dev=0, link=0, cycle=0)
        wd.arm(3, "new", dev=0, link=0, cycle=5)
        entries = wd.poll(1000)
        assert [e.packet for e in entries] == ["new"]

    def test_exhausted(self):
        wd = TagWatchdog(timeout=10, max_retries=2)
        wd.arm(3, "pkt", dev=0, link=0, cycle=0)
        [e] = wd.poll(1000)
        assert not wd.exhausted(e)
        wd.arm(3, "pkt", dev=0, link=0, cycle=1000)
        [e] = wd.poll(10_000)
        assert not wd.exhausted(e)
        wd.arm(3, "pkt", dev=0, link=0, cycle=10_000)
        [e] = wd.poll(100_000)
        assert wd.exhausted(e)

    def test_pending(self):
        wd = TagWatchdog(timeout=10)
        wd.arm(1, "a", dev=0, link=0, cycle=0)
        wd.arm(2, "b", dev=0, link=0, cycle=0)
        assert sorted(wd.pending()) == [1, 2]


class TestEngineResilience:
    def test_dropped_responses_are_retransmitted(self):
        sim = _faulty_sim("xbar_drop=0.05")
        engine = HostEngine(sim, watchdog=TagWatchdog(timeout=64))
        engine.add_threads(16, lambda ctx: read_program(ctx, count=4))
        result = engine.run()
        assert all(t.responses == 4 for t in result.threads)
        assert sim.faults.counts.get("rsp_drop", 0) > 0
        assert result.retransmits >= sim.faults.counts["rsp_drop"]
        # Recovered tags are no longer excused as lost.
        assert not sim.faults.lost_tags

    def test_duplicates_are_tolerated_and_counted(self):
        sim = _faulty_sim("xbar_dup=1.0")
        engine = HostEngine(sim)
        engine.add_threads(4, read_program)
        result = engine.run()
        assert all(t.responses == 1 for t in result.threads)
        assert result.duplicate_rsps == 4

    def test_drop_and_dup_chaos_completes(self):
        sim = _faulty_sim("xbar_drop=0.04", "xbar_dup=0.04", seed=77)
        engine = HostEngine(
            sim, watchdog=TagWatchdog(timeout=64), invariants=True
        )
        engine.add_threads(12, lambda ctx: read_program(ctx, count=6))
        result = engine.run()
        assert all(t.responses == 6 for t in result.threads)
        assert result.invariant_checks > 0

    def test_exhausted_watchdog_raises_with_dump(self):
        sim = _faulty_sim("xbar_drop=1.0")
        engine = HostEngine(
            sim, watchdog=TagWatchdog(timeout=16, max_retries=2)
        )
        engine.add_thread(read_program)
        with pytest.raises(SimDeadlockError, match="still unanswered") as exc:
            engine.run()
        assert "retransmission" in str(exc.value)
        assert "stuck threads" in str(exc.value)

    @pytest.mark.parametrize("xbar", ["queued", "vector"])
    def test_exhaustion_dump_names_tag_and_fault_kind(self, xbar):
        # Same contract on both datapaths: the dump's "exhausted tag"
        # entry names the tag, its retry count, and the fault kind that
        # destroyed the last response.
        sim = HMCSim(
            HMCConfig.cfg_4link_4gb(xbar=xbar),
            faults=FaultPlan.parse(["xbar_drop=1.0"], seed=0xD06),
        )
        engine = HostEngine(
            sim, watchdog=TagWatchdog(timeout=16, max_retries=2)
        )
        engine.add_thread(read_program)
        with pytest.raises(SimDeadlockError) as exc:
            engine.run()
        text = str(exc.value)
        assert "exhausted tag" in text
        assert "tag 0" in text
        assert "2 retransmission(s)" in text
        assert "'rsp_drop'" in text

    def test_run_entry_resets_watchdog_state(self):
        # A stale armed tag (or carried-over counters) from a previous
        # run must not leak into a new one: run() resets the watchdog
        # before clocking.  Without the reset, the stale entry would
        # time out mid-run and retransmit a bogus packet.
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        wd = TagWatchdog(timeout=64)
        wd.arm(99, "stale", dev=0, link=0, cycle=0)
        wd.timeouts = 3
        wd.retransmits = 5
        engine = HostEngine(sim, watchdog=wd)
        engine.add_thread(read_program)
        result = engine.run()
        assert result.retransmits == 0
        assert wd.timeouts == 0 and wd.retransmits == 0
        assert len(wd) == 0


class TestDeadlockDiagnostics:
    def test_engine_deadlock_dump_names_stuck_tags(self):
        # A dropped response with no watchdog: the thread waits forever
        # and the max_cycles guard must name it in the dump.
        sim = _faulty_sim("xbar_drop=1.0")
        engine = HostEngine(sim, max_cycles=100)
        engine.add_threads(2, read_program)
        with pytest.raises(SimDeadlockError, match="did not complete") as exc:
            engine.run()
        text = str(exc.value)
        assert "deadlock diagnostic" in text
        assert "stuck threads (2)" in text
        assert "tid0:WAITING(tag=0)" in text
        assert "tid1:WAITING(tag=1)" in text
        # The fault layer's view: both tags were destroyed by drops.
        assert "lost tags" in text

    def test_drain_deadlock_dump_lists_outstanding(self):
        # A wedged vault leaves the request queued forever: the drain
        # guard raises, and the dump names the outstanding tag.
        sim = _faulty_sim("vault_stall=1.0,duration=4")
        from repro.hmc.commands import hmc_rqst_t

        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 9))
        with pytest.raises(SimDeadlockError, match="did not drain") as exc:
            sim.drain(max_cycles=50)
        text = str(exc.value)
        assert "outstanding tags" in text
        assert "tag9" in text or "cub0:tag9" in text

    def test_dump_object_collects_structures(self):
        from repro.faults.diagnostics import collect_deadlock_dump
        from repro.hmc.commands import hmc_rqst_t

        sim = _faulty_sim("xbar_drop=1.0")
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 4))
        sim.clock(5)
        dump = collect_deadlock_dump(sim, extra={"note": "hello"})
        assert dump.cycle == sim.cycle
        assert (0, 4) in dump.outstanding
        assert (0, 4) in dump.lost_tags
        assert dump.extra["note"] == "hello"
        assert "hello" in str(dump)

    def test_windowed_engine_deadlock_dump(self):
        # Every response is dropped: the dump names each batch thread
        # and the tags of its window it still waits on.
        sim = _faulty_sim("xbar_drop=1.0")

        def batch_program(ctx, width):
            yield [ctx.read(i * 64, 16) for i in range(width)]

        engine = HostEngine(sim, window=2, max_cycles=60)
        engine.add_thread(lambda ctx: batch_program(ctx, 1))
        engine.add_thread(lambda ctx: batch_program(ctx, 2))
        with pytest.raises(SimDeadlockError, match="did not complete within") as exc:
            engine.run()
        assert "tid0:WAITING(tag=0)" in str(exc.value)
        assert "tid1:WAITING(tag=2,3)" in str(exc.value)
