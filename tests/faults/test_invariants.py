"""InvariantChecker tests: clean passes, violation detection, excusals."""

import pytest

from repro.errors import InvariantViolation
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.flow import LinkFlowModel
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from tests.conftest import with_flow


def read_program(ctx, count=1):
    for i in range(count):
        yield ctx.read(i * 64, 16)


class TestCleanRuns:
    def test_idle_context_passes(self, sim):
        checker = InvariantChecker(sim)
        checker.check(0)
        assert checker.checks == 1

    def test_busy_context_passes_every_cycle(self, sim):
        checker = InvariantChecker(sim)
        for tag in range(12):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, tag * 16, tag))
        for cycle in range(30):
            sim.clock()
            checker.check(sim.cycle)
        assert checker.checks == 30

    def test_flowed_context_passes(self):
        sim = with_flow(
            HMCConfig.cfg_4link_4gb(), LinkFlowModel(tokens_per_link=32)
        )
        checker = InvariantChecker(sim)
        for tag in range(8):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, tag * 16, tag))
            sim.clock()
            checker.check(sim.cycle)
        assert checker.checks == 8

    def test_engine_builds_checker_from_flag(self, sim):
        engine = HostEngine(sim, invariants=True)
        engine.add_threads(4, read_program)
        result = engine.run()
        assert result.invariant_checks > 0


class TestViolationDetection:
    def test_overfull_queue_detected(self, sim):
        checker = InvariantChecker(sim)
        q = sim.devices[0].xbar.rqst_queues[0]
        q._q.extend(object() for _ in range(q.depth + 1))
        with pytest.raises(InvariantViolation, match="queue-bound"):
            checker.check(1)

    def test_counter_drift_detected(self, sim):
        # An entry removed from the raw deque without booking the pop
        # breaks pushes - pops == occupancy.
        checker = InvariantChecker(sim)
        q = sim.devices[0].vaults[0].rqst_queue
        q.pushes += 2  # two phantom arrivals never enqueued
        with pytest.raises(InvariantViolation, match="queue-counter"):
            checker.check(1)

    def test_leaked_tokens_detected(self):
        sim = with_flow(
            HMCConfig.cfg_4link_4gb(), LinkFlowModel(tokens_per_link=32)
        )
        checker = InvariantChecker(sim)
        sim.flow.state(0, 0).tokens -= 3  # leak three tokens
        with pytest.raises(InvariantViolation, match="token-conservation"):
            checker.check(1)

    def test_vanished_tag_detected(self, sim):
        checker = InvariantChecker(sim)
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 7))
        # Forcibly vanish the request from the crossbar queue — the tag
        # is still host-outstanding but nowhere in the datapath.  Book
        # the pop so the queue-counter invariant stays satisfied and
        # the tag-conservation check is the one that fires.
        q = sim.devices[0].xbar.rqst_queues[0]
        q.pops += len(q._q)
        q._q.clear()
        with pytest.raises(InvariantViolation, match="cub0:tag7"):
            checker.check(1)

    def test_violation_is_simulation_error(self, sim):
        from repro.errors import HMCSimError

        assert issubclass(InvariantViolation, HMCSimError)


class TestLostTagExcusal:
    def test_fault_lost_tag_is_excused(self):
        sim = HMCSim(
            HMCConfig.cfg_4link_4gb(),
            faults=FaultPlan.parse(["xbar_drop=1.0"]),
        )
        checker = InvariantChecker(sim)
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 7))
        sim.clock(10)  # the response is dropped at the retire port
        assert (0, 7) in sim.faults.lost_tags
        checker.check(sim.cycle)  # excused: no raise
        assert checker.checks == 1

    def test_abandon_tag_clears_both_records(self):
        sim = HMCSim(
            HMCConfig.cfg_4link_4gb(),
            faults=FaultPlan.parse(["xbar_drop=1.0"]),
        )
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 7))
        sim.clock(10)
        assert sim.abandon_tag(0, 7) is True
        assert (0, 7) not in sim.faults.lost_tags
        InvariantChecker(sim).check(sim.cycle)  # nothing outstanding

    def test_unexcused_loss_still_raises(self):
        # A tag lost without the fault layer recording it is a bug.
        sim = HMCSim(
            HMCConfig.cfg_4link_4gb(),
            faults=FaultPlan.parse(["xbar_drop=1.0"]),
        )
        checker = InvariantChecker(sim)
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 7))
        sim.clock(10)
        sim.faults.lost_tags.clear()  # simulate missing bookkeeping
        with pytest.raises(InvariantViolation, match="tag-conservation"):
            checker.check(sim.cycle)
