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
from typing import Dict, List, Sequence, Tuple

from repro.hmc.commands import hmc_rqst_t
from repro.host.thread import Program, ThreadCtx

__all__ = [
    "SSSPStats",
    "relax_worker",
    "weighted_adjacency",
    "weighted_graph",
    "reference_sssp",
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
