"""SSSP kernel tests."""

import pytest

from repro.hmc.config import HMCConfig
from repro.host.kernels.sssp import INFINITY, reference_sssp, weighted_graph
from tests.conftest import run_workload


@pytest.fixture(scope="module")
def cfg():
    return HMCConfig.cfg_4link_4gb()


class TestGraphAndReference:
    def test_graph_deterministic(self):
        assert weighted_graph(64, 3) == weighted_graph(64, 3)

    def test_weights_positive(self):
        assert all(w >= 1 for _, _, w in weighted_graph(64, 3))

    def test_reference_simple_path(self):
        edges = [(0, 1, 2), (1, 2, 3), (0, 2, 10)]
        dist = reference_sssp(3, edges, 0)
        assert dist == {0: 0, 1: 2, 2: 5}

    def test_reference_unreachable_absent(self):
        dist = reference_sssp(3, [(0, 1, 1)], 0)
        assert 2 not in dist


class TestKernel:
    def test_amin_mode_verifies(self, cfg):
        s = run_workload("sssp", cfg, vertices=96, degree=3, amin=True)
        assert s.verified
        assert s.mode == "amin"

    def test_baseline_mode_verifies(self, cfg):
        s = run_workload("sssp", cfg, vertices=96, degree=3, amin=False)
        assert s.verified

    def test_amin_halves_worst_case_requests(self, cfg):
        a = run_workload("sssp", cfg, vertices=96, degree=3, amin=True)
        b = run_workload("sssp", cfg, vertices=96, degree=3, amin=False)
        # amin: 1 request per relaxation; baseline: 1 read + 1 write
        # per improving relaxation, 1 read otherwise.
        assert a.requests < b.requests

    def test_amin_faster(self, cfg):
        a = run_workload("sssp", cfg, vertices=96, degree=3, amin=True)
        b = run_workload("sssp", cfg, vertices=96, degree=3, amin=False)
        assert a.cycles < b.cycles

    def test_single_vertex_graph(self, cfg):
        s = run_workload("sssp", cfg, vertices=2, degree=1, amin=True)
        assert s.verified

    def test_rounds_bounded_by_vertices(self, cfg):
        s = run_workload("sssp", cfg, vertices=64, degree=3, amin=True)
        assert s.rounds <= 64

    def test_different_sources(self, cfg):
        for src in (0, 5, 31):
            s = run_workload(
                "sssp", cfg, vertices=64, degree=3, amin=True, source=src
            )
            assert s.verified, f"source {src}"

    def test_infinity_sentinel(self):
        assert INFINITY == 1 << 62
