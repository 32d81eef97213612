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
from typing import Any, Dict, List, Sequence, Tuple

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
    "BFSStats",
    "adjacency",
    "bfs_worker",
    "synthetic_graph",
    "reference_bfs_levels",
    "BFSWorkload",
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
        return synthetic_graph(params["vertices"], params["degree"], params["seed"])

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        sim.mem_write(
            self._LEVEL_BASE + params["root"] * 16,
            (1).to_bytes(8, "little") + bytes(8),
        )

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        ref = reference_bfs_levels(
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
        adj = adjacency(edges)
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
                lambda ctx, part, out: bfs_worker(
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
        return BFSStats(
            config_name=config.describe(),
            mode="cas" if p["cas"] else "baseline",
            vertices=p["vertices"],
            edges=len(edges),
            levels=max(levels.values()),
            cycles=sim.cycle - start,
            requests=requests,
            flits=sim.link_flits(),
            verified=self.verify(sim, p, None),
        )

    def cli_variants(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [dict(params, cas=cas) for cas in (False, True)]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} BFS ({s.mode}): {s.edges} edges, "
            f"{s.requests} requests, {s.flits} flits, verified={s.verified}"
        )
