"""Single-source shortest paths with atomic-min offload.

The companion case study to BFS-with-CAS (§II, related work [10]):
level-synchronous Bellman-Ford relaxations, where the inner step
``dist[v] = min(dist[v], dist[u] + w)`` is either

* **baseline** — RD16 the distance, compare host-side, WR16 if
  smaller (two round trips per improving relaxation, racy under
  concurrency), or
* **amin** — a single ``hmc_amin64`` (CMC07): the min happens in the
  cube, the returned original value tells the host whether the vertex
  improved (so it joins the next frontier).

Distances are verified exactly against a host-side Dijkstra.  Edge
weights are small positive integers; "infinity" is ``2**62``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.hmc.commands import hmc_rqst_t
from repro.hmc.sim import HMCSim
from repro.host.kernels.base import (
    COMMON,
    NON_NEGATIVE,
    POSITIVE,
    WaveWorkload,
    register_kernel,
    u64_at,
)
from repro.host.thread import Program, ThreadCtx

__all__ = [
    "SSSPStats",
    "relax_worker",
    "weighted_adjacency",
    "weighted_graph",
    "reference_sssp",
    "SSSPWorkload",
]

INFINITY = 1 << 62
_M64 = (1 << 64) - 1


def weighted_graph(
    num_vertices: int, avg_degree: int, seed: int = 77
) -> List[Tuple[int, int, int]]:
    """Deterministic connected-ish weighted edge list (u, v, w)."""
    state = seed & _M64
    edges = []
    for v in range(1, num_vertices):
        for _ in range(avg_degree):
            state = (state * 6364136223846793005 + 1442695040888963407) & _M64
            u = int(((state >> 11) / (1 << 53)) ** 2 * v)
            state = (state * 6364136223846793005 + 1442695040888963407) & _M64
            w = 1 + (state >> 48) % 9
            edges.append((u, v, w))
    return edges


def weighted_adjacency(
    edges: Sequence[Tuple[int, int, int]]
) -> Dict[int, List[Tuple[int, int]]]:
    """Undirected ``(neighbour, weight)`` lists, in edge-list order."""
    adj: Dict[int, List[Tuple[int, int]]] = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    return adj


def reference_sssp(
    num_vertices: int, edges: Sequence[Tuple[int, int, int]], source: int
) -> Dict[int, int]:
    """Host-side Dijkstra over the undirected weighted graph."""
    adj = weighted_adjacency(edges)
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, INFINITY):
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, INFINITY):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def relax_worker(
    ctx: ThreadCtx,
    dist_base: int,
    work: Sequence[Tuple[int, int]],  # (v, candidate) relaxations
    improved: List[int],
    use_amin: bool,
) -> Program:
    """Relax a slice of candidates; record the vertices that improved."""
    for v, candidate in work:
        addr = dist_base + v * 16
        if use_amin:
            payload = (candidate & _M64).to_bytes(8, "little") + bytes(8)
            rsp = yield ctx.request(hmc_rqst_t.CMC07, addr, payload)
            original = int.from_bytes(rsp.data[:8], "little")
            if candidate < original:
                improved.append(v)
        else:
            rsp = yield ctx.read(addr, 16)
            original = int.from_bytes(rsp.data[:8], "little")
            if candidate < original:
                yield ctx.write(
                    addr, (candidate & _M64).to_bytes(8, "little") + bytes(8)
                )
                improved.append(v)


@dataclass(frozen=True)
class SSSPStats:
    """One SSSP run."""

    config_name: str
    mode: str  # "amin" or "baseline"
    vertices: int
    edges: int
    rounds: int
    cycles: int
    requests: int
    verified: bool


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
        return weighted_graph(params["vertices"], params["degree"], params["seed"])

    def _dist(self, sim: HMCSim, v: int) -> int:
        return u64_at(sim.mem_read(self._DIST_BASE + v * 16, 8), 0)

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if params["amin"] and sim.cmc.lookup(7) is None:
            sim.load_cmc("repro.cmc_ops.amin64")
        for v in range(params["vertices"]):
            init = 0 if v == params["source"] else INFINITY
            sim.mem_write(
                self._DIST_BASE + v * 16, init.to_bytes(8, "little") + bytes(8)
            )

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        ref = reference_sssp(
            params["vertices"], self._edges(params), params["source"]
        )
        return all(
            self._dist(sim, v) == ref.get(v, INFINITY)
            for v in range(params["vertices"])
        )

    def run(self, config, params=None, *, sim=None, fault_plan=None, recorder=None):
        p = self.admit(params, sim, fault_plan, recorder)
        sim = self.new_sim(config, p)
        self.prepare(sim, p)
        edges = self._edges(p)
        adj = weighted_adjacency(edges)
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
                    if du + w < best.get(v, INFINITY):
                        best[v] = du + w
            if not best:
                break
            sent, improved = self._wave(
                sim,
                p,
                sorted(best.items()),
                lambda ctx, part, out: relax_worker(
                    ctx, self._DIST_BASE, part, out, p["amin"]
                ),
            )
            requests += sent
            frontier = set(improved)
        return SSSPStats(
            config_name=config.describe(),
            mode="amin" if p["amin"] else "baseline",
            vertices=p["vertices"],
            edges=len(edges),
            rounds=rounds,
            cycles=sim.cycle - start,
            requests=requests,
            verified=self.verify(sim, p, None),
        )

    def cli_variants(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [dict(params, amin=amin) for amin in (False, True)]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} SSSP ({s.mode}): {s.edges} edges, "
            f"{s.rounds} rounds, {s.requests} requests, verified={s.verified}"
        )
