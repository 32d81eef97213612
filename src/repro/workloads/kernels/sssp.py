"""The ``sssp`` frontend: single-source shortest paths."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.hmc.sim import HMCSim
from repro.host.kernels import sssp
from repro.workloads.kernels.base import (
    COMMON,
    NON_NEGATIVE,
    POSITIVE,
    WaveWorkload,
    register_kernel,
    u64_at,
)

__all__ = ["SSSPWorkload"]


@register_kernel
class SSSPWorkload(WaveWorkload):
    """Bellman-Ford-style SSSP: one engine wave per relaxation round."""

    name = "sssp"
    description = "single-source shortest paths (CMC07 amin64 vs rmw)"
    param_domains = {
        **COMMON,
        "vertices": POSITIVE,
        "degree": NON_NEGATIVE,
        "source": NON_NEGATIVE,
    }

    #: One 16-byte distance slot per vertex.
    _DIST_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 8,
            "vertices": 128,
            "degree": 3,
            "amin": True,
            "source": 0,
            "seed": 77,
            "max_cycles": 5_000_000,
        }

    @staticmethod
    def _edges(params: Dict[str, Any]) -> List[Tuple[int, int, int]]:
        return sssp.weighted_graph(params["vertices"], params["degree"], params["seed"])

    def _dist(self, sim: HMCSim, v: int) -> int:
        return u64_at(sim.mem_read(self._DIST_BASE + v * 16, 8), 0)

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if params["amin"] and sim.cmc.lookup(7) is None:
            sim.load_cmc("repro.cmc_ops.amin64")
        for v in range(params["vertices"]):
            init = 0 if v == params["source"] else sssp.INFINITY
            sim.mem_write(
                self._DIST_BASE + v * 16, init.to_bytes(8, "little") + bytes(8)
            )

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        ref = sssp.reference_sssp(
            params["vertices"], self._edges(params), params["source"]
        )
        return all(
            self._dist(sim, v) == ref.get(v, sssp.INFINITY)
            for v in range(params["vertices"])
        )

    def run(self, config, params=None, *, sim=None, fault_plan=None, recorder=None):
        p = self.admit(params, sim, fault_plan, recorder)
        sim = self.new_sim(config, p)
        self.prepare(sim, p)
        edges = self._edges(p)
        adj = sssp.weighted_adjacency(edges)
        frontier = {p["source"]}
        rounds = requests = 0
        start = sim.cycle
        while frontier:
            rounds += 1
            # Gather this round's relaxations from current HMC
            # distances, pre-reduced per target vertex so each v is
            # touched by exactly one thread per round ("owner
            # computes") — keeping the baseline read-modify-write mode
            # race-free for a fair correctness comparison.
            best: Dict[int, int] = {}
            for u in frontier:
                du = self._dist(sim, u)
                for v, w in adj.get(u, ()):
                    if du + w < best.get(v, sssp.INFINITY):
                        best[v] = du + w
            if not best:
                break
            sent, improved = self._wave(
                sim,
                p,
                sorted(best.items()),
                lambda ctx, part, out: sssp.relax_worker(
                    ctx, self._DIST_BASE, part, out, p["amin"]
                ),
            )
            requests += sent
            frontier = set(improved)
        return sssp.SSSPStats(
            config_name=config.describe(),
            mode="amin" if p["amin"] else "baseline",
            vertices=p["vertices"],
            edges=len(edges),
            rounds=rounds,
            cycles=sim.cycle - start,
            requests=requests,
            verified=self.verify(sim, p, None),
        )

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [{"threads": threads, "amin": amin} for amin in (False, True)]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} SSSP ({s.mode}): {s.edges} edges, "
            f"{s.rounds} rounds, {s.requests} requests, verified={s.verified}"
        )
