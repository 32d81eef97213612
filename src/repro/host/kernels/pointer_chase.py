"""Pointer-chase kernel: pure latency measurement.

Streaming kernels hide latency behind parallelism; a pointer chase
cannot — every load depends on the previous one, so the traversal rate
*is* the round-trip latency.  The chain is laid out by the host
(optionally scattered across vaults), then a thread follows ``next``
pointers with dependent RD16s.  With the baseline model every hop
costs exactly the 3-cycle round trip; under ``timing=open_page`` (the
DRAM timing extension) the row-buffer behaviour of the layout becomes visible
(sequential layout enjoys row hits, scattered layout does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.kernels.base import (
    NON_NEGATIVE,
    POSITIVE,
    KernelWorkload,
    register_kernel,
)
from repro.host.thread import Program, ThreadCtx
from repro.workloads.base import Footprint, ProgramFactory

__all__ = [
    "build_chain",
    "chase_program",
    "PointerChaseStats",
    "PointerChaseWorkload",
]

#: Node: [next u64][payload u64] in one 16-byte block.
NODE_BYTES = 16

_LCG_MUL = 2862933555777941757
_LCG_ADD = 3037000493
_M64 = (1 << 64) - 1


def build_chain(
    sim: HMCSim, base: int, length: int, *, scatter: bool = False, seed: int = 7
) -> int:
    """Lay out a ``length``-node chain starting at ``base``.

    Sequential layout places node i at ``base + i*16``; scattered
    layout permutes the node order deterministically so consecutive
    hops land in different rows/vaults.  Returns the head address.
    """
    order = list(range(length))
    if scatter:
        state = seed & _M64
        for i in range(length - 1, 0, -1):
            state = (state * _LCG_MUL + _LCG_ADD) & _M64
            j = state % (i + 1)
            order[i], order[j] = order[j], order[i]
    addr_of = [base + slot * NODE_BYTES for slot in order]
    for i in range(length):
        nxt = addr_of[i + 1] if i + 1 < length else 0
        sim.mem_write(
            addr_of[i],
            nxt.to_bytes(8, "little") + i.to_bytes(8, "little"),
        )
    return addr_of[0]


def chase_program(ctx: ThreadCtx, head: int, visited: List[int]) -> Program:
    """Follow ``next`` pointers until the null terminator."""
    addr = head
    while addr:
        rsp = yield ctx.read(addr, 16)
        visited.append(int.from_bytes(rsp.data[8:16], "little"))
        addr = int.from_bytes(rsp.data[:8], "little")


@dataclass(frozen=True)
class PointerChaseStats:
    """One traversal measurement."""

    config_name: str
    length: int
    scattered: bool
    timed: bool
    cycles: int
    cycles_per_hop: float
    order_correct: bool


@register_kernel
class PointerChaseWorkload(KernelWorkload):
    """Serial pointer chase: latency per dependent hop."""

    name = "chase"
    description = "pointer-chase latency kernel (sequential or scattered)"
    accepts_sim = False
    cli_kernel = False  # has its own `chase` subcommand (single-thread)
    # Single-threaded: no ``threads`` parameter to bound.
    param_domains = {
        "max_cycles": POSITIVE,
        "length": POSITIVE,
        "base": NON_NEGATIVE,
    }

    def default_params(self) -> Dict[str, Any]:
        return {
            "length": 64,
            "scatter": False,
            "base": 1 << 20,
            "max_cycles": 1_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        self._head = build_chain(
            sim, params["base"], params["length"], scatter=params["scatter"]
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        head = getattr(self, "_head", params["base"])
        self._visited: List[int] = []
        visited = self._visited
        return [lambda ctx: chase_program(ctx, head, visited)]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["base"], params["length"] * 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        visited = getattr(self, "_visited", None)
        if visited is None:
            return None
        return visited == list(range(params["length"]))

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return PointerChaseStats(
            config_name=sim.config.describe(),
            length=params["length"],
            scattered=params["scatter"],
            timed=sim.timing is not None,
            cycles=result.total_cycles,
            cycles_per_hop=result.total_cycles / params["length"],
            order_correct=self.verify(sim, params, result),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} pointer chase x{s.length} "
            f"({'scattered' if s.scattered else 'sequential'}"
            f"{', timed' if s.timed else ''}): {s.cycles} cycles, "
            f"{s.cycles_per_hop:.2f} cycles/hop, "
            f"order={'ok' if s.order_correct else 'BROKEN'}"
        )
