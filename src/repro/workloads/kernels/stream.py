"""The ``stream`` frontend: STREAM Triad."""

from __future__ import annotations

import math
import operator
import sys
from array import array
from typing import Any, Dict, List

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.kernels import stream
from repro.host.window import WindowedEngine
from repro.workloads.base import Footprint, ProgramFactory
from repro.workloads.kernels.base import (
    COMMON,
    POSITIVE,
    KernelWorkload,
    register_kernel,
)

__all__ = ["StreamWorkload"]

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
    kernel), which needs the windowed engine's batch-yield protocol.
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
        if not params["windowed"]:
            return super().new_engine(sim, params, fault_plan)
        return WindowedEngine(sim, window=2, max_cycles=params["max_cycles"])

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        program = (
            stream.windowed_triad_program
            if params["windowed"]
            else stream.stream_triad_program
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
        return stream.StreamStats(
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
