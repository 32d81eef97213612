"""The ``bfs`` frontend: level-synchronous BFS."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.hmc.sim import HMCSim
from repro.host.kernels import bfs
from repro.workloads.kernels.base import (
    COMMON,
    NON_NEGATIVE,
    POSITIVE,
    WaveWorkload,
    link_flits,
    register_kernel,
    u64_at,
)

__all__ = ["BFSWorkload"]


@register_kernel
class BFSWorkload(WaveWorkload):
    """Level-synchronous BFS: one engine wave per frontier level."""

    name = "bfs"
    description = "level-synchronous BFS (CASEQ8 visited-marking vs rmw)"
    param_domains = {
        **COMMON,
        "vertices": POSITIVE,
        "degree": NON_NEGATIVE,
        "root": NON_NEGATIVE,
    }

    #: One 16-byte level slot per vertex.
    _LEVEL_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 8,
            "vertices": 256,
            "degree": 4,
            "cas": True,
            "root": 0,
            "seed": 12345,
            "max_cycles": 5_000_000,
        }

    @staticmethod
    def _edges(params: Dict[str, Any]) -> List[Tuple[int, int]]:
        return bfs.synthetic_graph(params["vertices"], params["degree"], params["seed"])

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        sim.mem_write(
            self._LEVEL_BASE + params["root"] * 16,
            (1).to_bytes(8, "little") + bytes(8),
        )

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        ref = bfs.reference_bfs_levels(
            params["vertices"], self._edges(params), params["root"]
        )
        return all(
            u64_at(sim.mem_read(self._LEVEL_BASE + v * 16, 8), 0) == lvl
            for v, lvl in ref.items()
        )

    def run(self, config, params=None, *, sim=None, fault_plan=None, recorder=None):
        p = self.admit(params, sim, fault_plan, recorder)
        sim = self.new_sim(config, p)
        self.prepare(sim, p)
        edges = self._edges(p)
        adj = bfs.adjacency(edges)
        levels: Dict[int, int] = {p["root"]: 1}
        frontier = [p["root"]]
        depth = 1
        requests = 0
        start = sim.cycle
        while frontier:
            inspections = [
                (u, v) for u in frontier for v in adj.get(u, ()) if v not in levels
            ]
            if not inspections:
                break
            sent, claimed = self._wave(
                sim,
                p,
                inspections,
                lambda ctx, part, out: bfs.bfs_worker(
                    ctx, self._LEVEL_BASE, part, levels, out, p["cas"]
                ),
            )
            requests += sent
            depth += 1
            frontier = []
            for v in claimed:
                if v not in levels:
                    levels[v] = depth
                    frontier.append(v)
        return bfs.BFSStats(
            config_name=config.describe(),
            mode="cas" if p["cas"] else "baseline",
            vertices=p["vertices"],
            edges=len(edges),
            levels=max(levels.values()),
            cycles=sim.cycle - start,
            requests=requests,
            flits=link_flits(sim),
            verified=self.verify(sim, p, None),
        )

    def cli_variants(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [dict(params, cas=cas) for cas in (False, True)]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} BFS ({s.mode}): {s.edges} edges, "
            f"{s.requests} requests, {s.flits} flits, verified={s.verified}"
        )
