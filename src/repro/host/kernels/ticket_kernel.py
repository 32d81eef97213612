"""Ticket-lock contention workload — the fairness counterpart to Algorithm 1.

Every thread executes, against one shared 16-byte ticket structure::

    (my_ticket, now_serving) = HMC_TICKET_ENTER(ADDR)
    while now_serving != my_ticket do
        now_serving = HMC_TICKET_WAIT(ADDR)
    end while
    HMC_TICKET_EXIT(ADDR)

Same hot-spot shape as the paper's Algorithm 1 so the two CMC designs
are directly comparable; additionally records the *acquisition order*
so fairness can be quantified (a ticket lock must grant in strict
arrival order; the Table V test-and-set design does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.cmc_ops.ticket import (
    decode_enter,
    decode_serving,
    init_ticket_lock,
    load_ticket_ops,
)
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.kernels.base import (
    COMMON,
    NON_NEGATIVE,
    KernelWorkload,
    register_kernel,
)
from repro.host.thread import Program, ThreadCtx
from repro.workloads.base import Footprint, ProgramFactory

__all__ = ["ticket_program", "TicketRunStats", "TicketWorkload"]

DEFAULT_LOCK_ADDR = 0x0


def ticket_program(
    ctx: ThreadCtx, lock_addr: int, acquisitions: List[int]
) -> Program:
    """Enter/spin/exit; append this thread's ticket to ``acquisitions``
    at the moment it enters the critical section."""
    rsp = yield ctx.request(hmc_rqst_t.CMC21, lock_addr)
    my_ticket, serving = decode_enter(rsp.data)
    while serving != my_ticket:
        rsp = yield ctx.request(hmc_rqst_t.CMC22, lock_addr)
        serving = decode_serving(rsp.data)
    acquisitions.append(my_ticket)
    yield ctx.request(hmc_rqst_t.CMC23, lock_addr)


@dataclass(frozen=True)
class TicketRunStats:
    """One ticket-lock contention run."""

    config_name: str
    threads: int
    min_cycle: int
    max_cycle: int
    avg_cycle: float
    total_cycles: int
    #: True when the lock was granted in strict ticket (arrival) order.
    fifo_order: bool


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
            "lock_addr": DEFAULT_LOCK_ADDR,
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
            lambda ctx: ticket_program(ctx, lock_addr, acquisitions)
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
        return TicketRunStats(
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
