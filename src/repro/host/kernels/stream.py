"""STREAM Triad kernel (stride-1 bandwidth; HMC-Sim 1.0 evaluation, §II).

The HMC-Sim prior work executed a STREAM Triad kernel — ``a[i] = b[i]
+ q * c[i]`` — against varying device configurations to expose the
behaviour of stride-1 access.  Each simulated thread owns a contiguous
slice of the arrays and, per element block, issues two reads (``b``,
``c``) and one write (``a``); the floating-point work happens host-side
(the HMC is a memory, not a FLOP engine), so the measured quantity is
pure memory-system throughput: bytes moved per device cycle.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from repro.host.kernels.base import COMMON, POSITIVE, KernelWorkload, register_kernel
from repro.host.thread import Program, ThreadCtx
from repro.workloads.base import Footprint, ProgramFactory

__all__ = [
    "stream_triad_program",
    "windowed_triad_program",
    "StreamStats",
    "StreamWorkload",
]

#: Doubles per 64-byte HMC block.
_DOUBLES_PER_BLOCK = 8


def stream_triad_program(
    ctx: ThreadCtx,
    a_base: int,
    b_base: int,
    c_base: int,
    start_block: int,
    num_blocks: int,
    q: float,
    block_bytes: int = 64,
) -> Program:
    """Triad over ``num_blocks`` consecutive ``block_bytes`` blocks."""
    block = struct.Struct(f"<{block_bytes // 8}d")
    for blk in range(start_block, start_block + num_blocks):
        off = blk * block_bytes
        rsp_b = yield ctx.read(b_base + off, block_bytes)
        rsp_c = yield ctx.read(c_base + off, block_bytes)
        b_vals, c_vals = block.unpack(rsp_b.data), block.unpack(rsp_c.data)
        a_vals = [bv + q * cv for bv, cv in zip(b_vals, c_vals)]  # not a genexpr
        yield ctx.write(a_base + off, block.pack(*a_vals))


@dataclass(frozen=True)
class StreamStats:
    """Result of one Triad run."""

    config_name: str
    threads: int
    elements: int
    cycles: int
    bytes_moved: int
    #: Memory-system throughput in bytes per device cycle.
    bytes_per_cycle: float
    #: Verification outcome: max absolute error vs the host reference.
    max_abs_error: float


def windowed_triad_program(
    ctx,
    a_base: int,
    b_base: int,
    c_base: int,
    start_block: int,
    num_blocks: int,
    q: float,
    block_bytes: int,
):
    """Triad with batched issue: both input reads of a block in flight
    together (a batch program for a :class:`repro.host.engine.HostEngine`
    of window 2)."""
    block = struct.Struct(f"<{block_bytes // 8}d")
    for blk in range(start_block, start_block + num_blocks):
        off = blk * block_bytes
        rsp_b, rsp_c = yield [
            ctx.read(b_base + off, block_bytes),
            ctx.read(c_base + off, block_bytes),
        ]
        b_vals, c_vals = block.unpack(rsp_b.data), block.unpack(rsp_c.data)
        a_vals = [bv + q * cv for bv, cv in zip(b_vals, c_vals)]
        yield [ctx.write(a_base + off, block.pack(*a_vals))]


#: One period of each input: ``b[i] = i % 97`` and ``c[i] = 7i % 31``.
#: The periods are coprime, so the triad repeats every 97 * 31 elements.
_B_PERIOD = [float(i) for i in range(97)]
_C_PERIOD = [float((i * 7) % 31) for i in range(31)]
_TRIAD_PERIOD = len(_B_PERIOD) * len(_C_PERIOD)

#: Simulated memory is little-endian; a big-endian host swaps.
_SWAP = sys.byteorder == "big"


def _tiled(period: List[float], n: int) -> array:
    """``period`` repeated to ``n`` packed doubles (the repeat runs in C)."""
    out = array("d", period) * -(-n // len(period))
    del out[n:]
    return out


@register_kernel
class StreamWorkload(KernelWorkload):
    """STREAM Triad over three disjoint double arrays.

    With ``windowed=True`` each thread keeps both input reads of a
    block in flight concurrently (memory-level parallelism inside the
    kernel): its program yields batches to an engine of window 2.
    """

    name = "stream"
    description = "STREAM Triad bandwidth kernel (a = b + q*c)"
    accepts_sim = False
    param_domains = {
        **COMMON,
        "blocks_per_thread": POSITIVE,
        "block_bytes": frozenset((16, 32, 48, 64, 80, 96, 112, 128, 256)),
    }

    #: Array bases, 1 MiB apart, so stride-1 traffic sweeps
    #: vaults/banks the way the interleave intends.
    _BASES = (1 << 20, 2 << 20, 3 << 20)

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "blocks_per_thread": 8,
            "q": 3.0,
            "block_bytes": 64,
            "windowed": False,
            "max_cycles": 1_000_000,
        }

    @staticmethod
    def _n(params: Dict[str, Any]) -> int:
        """Elements per array."""
        return (
            params["threads"]
            * params["blocks_per_thread"]
            * (params["block_bytes"] // 8)
        )

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        _, b_base, c_base = self._BASES
        n = self._n(params)
        for base, period in ((b_base, _B_PERIOD), (c_base, _C_PERIOD)):
            values = _tiled(period, n)
            if _SWAP:
                values.byteswap()
            sim.mem_write(base, values.tobytes())

    def new_engine(self, sim: HMCSim, params: Dict[str, Any], fault_plan: Any):
        window = 2 if params["windowed"] else 1
        return HostEngine(sim, max_cycles=params["max_cycles"], window=window)

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        program = (
            windowed_triad_program
            if params["windowed"]
            else stream_triad_program
        )
        a_base, b_base, c_base = self._BASES
        bpt = params["blocks_per_thread"]
        q, bb = params["q"], params["block_bytes"]
        return [
            lambda ctx, t=t: program(ctx, a_base, b_base, c_base, t * bpt, bpt, q, bb)
            for t in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        size = (
            params["threads"] * params["blocks_per_thread"] * params["block_bytes"]
        )
        return tuple((base, size) for base in self._BASES)

    def _max_abs_error(self, sim: HMCSim, params: Dict[str, Any]) -> float:
        """Largest deviation of ``a`` from the host-side triad."""
        n, q = self._n(params), params["q"]
        got = array("d", sim.mem_read(self._BASES[0], n * 8))
        if _SWAP:
            got.byteswap()
        # One period computed as the kernel computes each element, then
        # repeated: the whole expected ``a`` without a float object each.
        period = [
            b + q * c
            for b, c in zip(
                _tiled(_B_PERIOD, _TRIAD_PERIOD), _tiled(_C_PERIOD, _TRIAD_PERIOD)
            )
        ]
        want = _tiled(period, n)
        if got == want and all(map(math.isfinite, period)):
            # Every difference is exactly zero (inf - inf would not be).
            return 0.0
        # Lazy map()s over C functions: no frame and no list per element.
        return max(map(abs, map(operator.sub, got, want)))

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return self._max_abs_error(sim, params) == 0.0

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        total_blocks = params["threads"] * params["blocks_per_thread"]
        bytes_moved = total_blocks * params["block_bytes"] * 3
        return StreamStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            elements=self._n(params),
            cycles=result.total_cycles,
            bytes_moved=bytes_moved,
            bytes_per_cycle=bytes_moved / result.total_cycles,
            max_abs_error=self._max_abs_error(sim, params),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} STREAM Triad x{s.threads}: {s.cycles} cycles, "
            f"{s.bytes_per_cycle:.1f} B/cycle, err={s.max_abs_error}"
        )
