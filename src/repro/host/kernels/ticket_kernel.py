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
from typing import List

from repro.cmc_ops.ticket import decode_enter, decode_serving
from repro.hmc.commands import hmc_rqst_t
from repro.host.thread import Program, ThreadCtx

__all__ = ["ticket_program", "TicketRunStats"]

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
