"""STREAM / GUPS / BFS / histogram kernel tests."""

import pytest

from repro.errors import WorkloadError
from repro.hmc.config import HMCConfig
from repro.host.kernels.bfs import reference_bfs_levels, synthetic_graph
from repro.host.kernels.gups import hpcc_random_stream
from tests.conftest import run_workload


@pytest.fixture(scope="module")
def cfg():
    return HMCConfig.cfg_4link_4gb()


class TestStream:
    def test_result_is_exact(self, cfg):
        s = run_workload("stream", cfg, threads=4, blocks_per_thread=2)
        assert s.max_abs_error == 0.0

    def test_bytes_accounting(self, cfg):
        s = run_workload("stream", cfg, threads=4, blocks_per_thread=2, block_bytes=64)
        assert s.bytes_moved == 4 * 2 * 64 * 3

    def test_more_threads_more_throughput(self, cfg):
        lone = run_workload("stream", cfg, threads=1, blocks_per_thread=8)
        wide = run_workload("stream", cfg, threads=8, blocks_per_thread=1)
        assert wide.bytes_per_cycle > lone.bytes_per_cycle

    def test_block_sizes(self, cfg):
        for bb in (16, 64, 128):
            s = run_workload("stream", cfg, threads=2, blocks_per_thread=2, block_bytes=bb)
            assert s.max_abs_error == 0.0

    def test_windowed_mode_exact(self, cfg):
        s = run_workload(
            "stream", cfg, threads=4, blocks_per_thread=4, windowed=True
        )
        assert s.max_abs_error == 0.0

    def test_windowed_mode_faster(self, cfg):
        serial = run_workload("stream", cfg, threads=4, blocks_per_thread=8)
        wide = run_workload(
            "stream", cfg, threads=4, blocks_per_thread=8, windowed=True
        )
        # Both input reads in flight together: fewer serialized RTTs.
        assert wide.cycles < serial.cycles
        assert wide.bytes_per_cycle > serial.bytes_per_cycle


class TestGUPS:
    def test_random_stream_deterministic(self):
        assert hpcc_random_stream(1, 10) == hpcc_random_stream(1, 10)
        assert hpcc_random_stream(1, 10) != hpcc_random_stream(2, 10)

    def test_random_stream_zero_seed(self):
        assert len(hpcc_random_stream(0, 5)) == 5

    def test_atomic_mode_verifies_exactly(self, cfg):
        g = run_workload("gups", cfg, threads=4, updates_per_thread=8, atomic=True)
        assert g.verified

    def test_atomic_halves_request_count(self, cfg):
        a = run_workload("gups", cfg, threads=4, updates_per_thread=8, atomic=True)
        r = run_workload("gups", cfg, threads=4, updates_per_thread=8, atomic=False)
        assert r.requests == 2 * a.requests

    def test_atomic_faster_than_rmw(self, cfg):
        a = run_workload("gups", cfg, threads=8, updates_per_thread=16, atomic=True)
        r = run_workload("gups", cfg, threads=8, updates_per_thread=16, atomic=False)
        assert a.cycles < r.cycles
        assert a.updates_per_cycle > r.updates_per_cycle

    def test_mode_label(self, cfg):
        assert run_workload("gups", cfg, threads=2, updates_per_thread=2).mode == "atomic"


class TestBFS:
    def test_synthetic_graph_deterministic(self):
        assert synthetic_graph(64, 3) == synthetic_graph(64, 3)

    def test_synthetic_graph_edges_in_range(self):
        for u, v in synthetic_graph(64, 3):
            assert 0 <= u < 64 and 0 <= v < 64

    def test_reference_bfs(self):
        edges = [(0, 1), (1, 2), (0, 3)]
        levels = reference_bfs_levels(4, edges, 0)
        assert levels == {0: 1, 1: 2, 3: 2, 2: 3}

    def test_cas_mode_matches_reference(self, cfg):
        s = run_workload("bfs", cfg, vertices=96, degree=3, cas=True)
        assert s.verified

    def test_baseline_mode_matches_reference(self, cfg):
        s = run_workload("bfs", cfg, vertices=96, degree=3, cas=False)
        assert s.verified

    def test_cas_reduces_requests(self, cfg):
        c = run_workload("bfs", cfg, vertices=96, degree=3, cas=True)
        b = run_workload("bfs", cfg, vertices=96, degree=3, cas=False)
        assert c.requests < b.requests
        assert c.flits < b.flits


class TestHistogram:
    def test_atomic_exact(self, cfg):
        h = run_workload("hist", cfg, mode="atomic")
        assert h.exact and h.lost_updates == 0

    def test_posted_exact_and_cheapest(self, cfg):
        h = run_workload("hist", cfg, mode="posted")
        assert h.exact
        # Posted INC8: 1 FLIT per sample, nothing comes back.
        assert h.flits_per_sample == 1.0

    def test_rmw_loses_updates_under_contention(self, cfg):
        # The correctness argument for atomics: concurrent RMW on
        # shared counters drops increments.
        h = run_workload("hist", cfg, mode="rmw", threads=16, bins=4)
        assert h.lost_updates > 0
        assert not h.exact

    def test_rmw_exact_without_sharing(self, cfg):
        # One thread -> no interleaving -> exact.
        h = run_workload("hist", cfg, mode="rmw", threads=1, samples_per_thread=64)
        assert h.exact

    def test_atomic_traffic_is_table2_ratio_vs_rmw(self, cfg):
        a = run_workload("hist", cfg, mode="atomic")
        r = run_workload("hist", cfg, mode="rmw")
        # INC8: 2 FLITs/sample.  16-byte RMW: 1+2+2+1 = 6 FLITs/sample.
        assert a.flits_per_sample == pytest.approx(2.0)
        assert r.flits_per_sample == pytest.approx(6.0)

    def test_unknown_mode(self, cfg):
        with pytest.raises(WorkloadError, match="'mode' must be one of"):
            run_workload("hist", cfg, mode="bogus")
