"""The ``ticket`` frontend: a FIFO ticket lock."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cmc_ops.ticket import init_ticket_lock, load_ticket_ops
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.kernels import ticket_kernel
from repro.workloads.base import Footprint, ProgramFactory
from repro.workloads.kernels.base import (
    COMMON,
    NON_NEGATIVE,
    KernelWorkload,
    register_kernel,
)

__all__ = ["TicketWorkload"]


@register_kernel
class TicketWorkload(KernelWorkload):
    """FIFO ticket lock over the CMC21/22/23 triple."""

    name = "ticket"
    description = "FIFO ticket lock (CMC enter/wait/exit)"
    recordable = True
    param_domains = {**COMMON, "lock_addr": NON_NEGATIVE}

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "lock_addr": ticket_kernel.DEFAULT_LOCK_ADDR,
            "max_cycles": 1_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if sim.cmc.lookup(21) is None:
            load_ticket_ops(sim)
        init_ticket_lock(sim, params["lock_addr"])

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        lock_addr = params["lock_addr"]
        self._acquisitions: List[int] = []
        acquisitions = self._acquisitions
        return [
            lambda ctx: ticket_kernel.ticket_program(ctx, lock_addr, acquisitions)
            for _ in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["lock_addr"], 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        # Granted in strict ticket (arrival) order, once per thread.
        acquired = getattr(self, "_acquisitions", None)
        if acquired is None:
            return None
        return acquired == sorted(acquired) and len(acquired) == params["threads"]

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return ticket_kernel.TicketRunStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            min_cycle=result.min_cycle,
            max_cycle=result.max_cycle,
            avg_cycle=result.avg_cycle,
            total_cycles=result.total_cycles,
            fifo_order=self.verify(sim, params, result),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} ticket x{s.threads}: min={s.min_cycle} "
            f"max={s.max_cycle} avg={s.avg_cycle:.2f} fifo={s.fifo_order}"
        )
