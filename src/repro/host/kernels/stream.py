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

import struct
from dataclasses import dataclass

from repro.host.thread import Program, ThreadCtx

__all__ = ["stream_triad_program", "windowed_triad_program", "StreamStats"]

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
