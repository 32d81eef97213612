"""Algorithm 1 workload tests: the paper's §V.B/§V.C behaviour."""

import pytest

from repro.analysis.verify import PAPER_ANCHORS, relative_difference_pct
from repro.cmc_ops import base
from repro.errors import WorkloadError
from repro.hmc.config import HMCConfig
from repro.host.kernels.mutex_kernel import DEFAULT_LOCK_ADDR, MutexRunStats
from tests.conftest import run_workload


class TestSmallRuns:
    def test_single_thread_fast_path_is_six_cycles(self, cfg4):
        # Lock succeeds immediately -> unlock: two 3-cycle round trips.
        stats = run_workload("mutex", cfg4, threads=1)
        assert stats.min_cycle == stats.max_cycle == 6
        assert stats.cmc_executions == 2  # one lock + one unlock

    def test_two_threads_min_is_paper_min(self, cfg4):
        stats = run_workload("mutex", cfg4, threads=2)
        assert stats.min_cycle == PAPER_ANCHORS["table6_min_4link"].value

    def test_all_threads_complete(self, cfg4):
        stats = run_workload("mutex", cfg4, threads=10)
        assert stats.threads == 10
        assert stats.max_cycle >= stats.min_cycle
        assert stats.min_cycle <= stats.avg_cycle <= stats.max_cycle

    def test_lock_released_at_end(self, cfg4):
        from repro.cmc_ops.mutex import load_mutex_ops
        from repro.hmc.sim import HMCSim

        sim = HMCSim(cfg4)
        load_mutex_ops(sim)
        run_workload("mutex", cfg4, threads=8, sim=sim)
        _, lock = base.read_lock_struct(sim, 0, DEFAULT_LOCK_ADDR)
        assert lock == base.LOCK_FREE

    def test_every_thread_acquired_exactly_once(self, cfg4):
        # Total unlock successes == thread count: each thread entered
        # and left the critical section exactly once.
        from repro.cmc_ops.mutex import load_mutex_ops
        from repro.hmc.sim import HMCSim

        sim = HMCSim(cfg4)
        ops = {op.op_name: op for op in load_mutex_ops(sim)}
        run_workload("mutex", cfg4, threads=12, sim=sim)
        assert ops["hmc_unlock"].executions == 12
        assert ops["hmc_lock"].executions == 12

    def test_invalid_thread_count(self, cfg4):
        with pytest.raises(WorkloadError, match="'threads' must be"):
            run_workload("mutex", cfg4, threads=0)

    def test_custom_lock_addr(self, cfg4):
        stats = run_workload("mutex", cfg4, threads=4, lock_addr=0x123450)
        assert stats.min_cycle == 6

    def test_stats_dataclass_fields(self, cfg4):
        stats = run_workload("mutex", cfg4, threads=2)
        assert isinstance(stats, MutexRunStats)
        assert stats.config_name == "4Link-4GB"
        assert stats.total_cycles >= stats.max_cycle


class TestPaperShape:
    """The qualitative claims of §V.C, on a reduced sweep."""

    def test_configs_identical_at_low_thread_counts(self, cfg4, cfg8):
        # "minimum, maximum and average cycle counts are actually
        # identical between both configurations for thread counts from
        # two to fifty" — we assert it for a low-count sample.
        for n in (2, 8, 16):
            s4 = run_workload("mutex", cfg4, threads=n)
            s8 = run_workload("mutex", cfg8, threads=n)
            assert s4.min_cycle == s8.min_cycle, n
            assert s4.max_cycle == s8.max_cycle, n
            assert s4.avg_cycle == s8.avg_cycle, n

    def test_8link_at_least_as_good_at_high_counts(self, cfg4, cfg8):
        s4 = run_workload("mutex", cfg4, threads=99)
        s8 = run_workload("mutex", cfg8, threads=99)
        assert s8.max_cycle <= s4.max_cycle
        assert s8.avg_cycle <= s4.avg_cycle

    def test_8link_advantage_is_small(self, cfg4, cfg8):
        # §V.C: the 8-link device is "only" a few percent better.
        s4 = run_workload("mutex", cfg4, threads=99)
        s8 = run_workload("mutex", cfg8, threads=99)
        for key in ("pct_max_advantage", "pct_avg_advantage"):
            assert PAPER_ANCHORS[key].value < 10.0
        assert relative_difference_pct(s4.max_cycle, s8.max_cycle) < 10.0
        assert relative_difference_pct(s4.avg_cycle, s8.avg_cycle) < 10.0

    def test_worst_case_magnitude_matches_paper(self, cfg4):
        # The sanity bands hold Table VI's 4-link worst case (at 99
        # threads in the paper) and the measured one.
        s4 = run_workload("mutex", cfg4, threads=99)
        assert 300 <= PAPER_ANCHORS["table6_max_4link"].value <= 480
        assert 170 <= PAPER_ANCHORS["table6_avg_4link"].value <= 280
        assert 300 <= s4.max_cycle <= 480
        assert 170 <= s4.avg_cycle <= 280

    def test_max_grows_with_threads(self, cfg4):
        maxes = [run_workload("mutex", cfg4, threads=n).max_cycle for n in (4, 16, 64)]
        assert maxes == sorted(maxes)
        assert maxes[-1] > maxes[0]

    def test_hot_spot_serializes_roughly_linearly(self, cfg4):
        # ~3-4 cycles per thread once the handoff chain dominates.
        s = run_workload("mutex", cfg4, threads=64)
        assert 2.0 <= s.max_cycle / 64 <= 6.0
