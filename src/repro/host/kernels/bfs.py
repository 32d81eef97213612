"""Breadth-first search with HMC CAS offload (related work [10], §II).

Nai & Kim's MEMSYS'15 case study replaced the *check-and-update* step
of BFS — "is this neighbour unvisited? if so, claim it for the next
level" — with HMC 2.0 ``CAS`` atomics, turning two host round trips
per edge into one and cutting kernel bandwidth.  This kernel
reproduces that comparison on the simulator:

* **baseline** mode: per inspected edge, RD16 the neighbour's level
  word, and if unvisited WR16 the new level (a racy read-modify-write
  that real hardware must fence or re-check);
* **cas** mode: a single ``CASEQ8`` per edge — compare the level word
  against UNVISITED and swap in the new level; the returned original
  value tells the host whether it claimed the vertex.

Levels live in a 16-byte slot per vertex.  Both modes produce the
same BFS levels (CAS resolves races exactly; the baseline is safe
here because each frontier is processed level-synchronously and
duplicate claims write identical values).

Graphs come from a built-in deterministic Kronecker-ish generator, so
the kernel has no dependency outside the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.host.thread import Program, ThreadCtx

__all__ = [
    "BFSStats",
    "adjacency",
    "bfs_worker",
    "synthetic_graph",
    "reference_bfs_levels",
]

#: Level-word value for an unvisited vertex.
UNVISITED = 0


def synthetic_graph(num_vertices: int, avg_degree: int, seed: int = 12345) -> List[Tuple[int, int]]:
    """Deterministic scale-free-ish edge list (no external deps).

    Uses a multiplicative-hash preferential attachment: each new edge
    endpoint is biased toward low vertex ids, giving the skewed degree
    distribution BFS workloads care about.
    """
    edges = []
    state = seed & 0xFFFFFFFFFFFFFFFF
    for v in range(1, num_vertices):
        for _ in range(avg_degree):
            state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            # Bias toward low ids: square the unit sample.
            u = int(((state >> 11) / (1 << 53)) ** 2 * v)
            edges.append((u, v))
    return edges


def adjacency(edges: Sequence[Tuple[int, int]]) -> Dict[int, List[int]]:
    """Undirected adjacency lists, neighbours in edge-list order."""
    adj: Dict[int, List[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def reference_bfs_levels(num_vertices: int, edges: Sequence[Tuple[int, int]], root: int) -> Dict[int, int]:
    """Host-side BFS levels (1-based; UNVISITED vertices absent)."""
    adj = adjacency(edges)
    levels = {root: 1}
    frontier = [root]
    depth = 1
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in levels:
                    levels[v] = depth
                    nxt.append(v)
        frontier = nxt
    return levels


def bfs_worker(
    ctx: ThreadCtx,
    level_base: int,
    edges: Sequence[Tuple[int, int]],
    frontier_levels: Dict[int, int],
    claimed: List[int],
    use_cas: bool,
) -> Program:
    """Inspect a slice of frontier edges and claim unvisited endpoints."""
    for u, v in edges:
        new_level = frontier_levels[u] + 1
        addr = level_base + v * 16
        if use_cas:
            rsp = yield ctx.caseq8(addr, UNVISITED, new_level)
            original = int.from_bytes(rsp.data[:8], "little")
            if original == UNVISITED:
                claimed.append(v)
        else:
            rsp = yield ctx.read(addr, 16)
            original = int.from_bytes(rsp.data[:8], "little")
            if original == UNVISITED:
                yield ctx.write(addr, new_level.to_bytes(8, "little") + bytes(8))
                claimed.append(v)


@dataclass(frozen=True)
class BFSStats:
    """Result of one BFS traversal."""

    config_name: str
    mode: str  # "cas" or "baseline"
    vertices: int
    edges: int
    levels: int
    cycles: int
    #: Request packets sent (the bandwidth proxy of the case study).
    requests: int
    #: Request+response FLITs moved across the links.
    flits: int
    verified: bool
