"""The ``gups`` frontend: HPCC RandomAccess."""

from __future__ import annotations

import struct
from typing import Any, Dict, List

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.kernels import gups
from repro.workloads.base import Footprint, ProgramFactory
from repro.workloads.kernels.base import (
    COMMON,
    POSITIVE,
    KernelWorkload,
    register_kernel,
)

__all__ = ["GUPSWorkload"]


@register_kernel
class GUPSWorkload(KernelWorkload):
    """HPCC RandomAccess: XOR updates over a scattered table."""

    name = "gups"
    description = "HPCC RandomAccess (atomic XOR16 vs read-modify-write)"
    accepts_sim = False
    param_domains = {
        **COMMON,
        "updates_per_thread": POSITIVE,
        "table_entries": POSITIVE,
    }

    #: The table starts at zero (cold pages read as zero): no preload.
    _TABLE_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "updates_per_thread": 32,
            "table_entries": 4096,
            "atomic": True,
            "seed": 0x2545F4914F6CDD1D,
            "max_cycles": 2_000_000,
        }

    @staticmethod
    def _updates(params: Dict[str, Any]) -> List[int]:
        return gups.hpcc_random_stream(
            params["seed"], params["threads"] * params["updates_per_thread"]
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        upd = params["updates_per_thread"]
        updates = self._updates(params)
        entries, atomic = params["table_entries"], params["atomic"]
        return [
            lambda ctx, chunk=updates[t * upd : (t + 1) * upd]: gups.gups_program(
                ctx, self._TABLE_BASE, entries, chunk, atomic
            )
            for t in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((self._TABLE_BASE, params["table_entries"] * 16),)

    def _table_matches(self, sim: HMCSim, params: Dict[str, Any]) -> bool:
        """Whether the table equals the XOR-fold of every update (which
        is order-independent, so exact whenever no update was lost)."""
        entries = params["table_entries"]
        ref = [0] * entries
        for r in self._updates(params):
            ref[r % entries] ^= r
        table = sim.mem_read(self._TABLE_BASE, entries * 16)
        # Every entry's low word, in one unpack.
        return list(struct.unpack(f"<{2 * entries}Q", table)[::2]) == ref

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        if not params["atomic"]:
            return None  # rmw mode tolerates lost updates by design
        return self._table_matches(sim, params)

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        updates = params["threads"] * params["updates_per_thread"]
        return gups.GUPSStats(
            config_name=sim.config.describe(),
            mode="atomic" if params["atomic"] else "rmw",
            threads=params["threads"],
            updates=updates,
            cycles=result.total_cycles,
            updates_per_cycle=updates / result.total_cycles,
            requests=sum(t.requests for t in result.threads),
            # Reported, not asserted, in rmw mode.
            verified=self._table_matches(sim, params),
        )

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [{"threads": threads, "atomic": atomic} for atomic in (False, True)]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} GUPS ({s.mode}) x{s.threads}: {s.cycles} cycles, "
            f"{s.updates_per_cycle:.3f} upd/cycle, verified={s.verified}"
        )
