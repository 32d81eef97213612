"""The paper's CMC mutex workload — Algorithm 1 (§V.B).

Every thread executes, against a *single shared lock structure*::

    HMC_LOCK(ADDR)
    if LOCK_SUCCESS then
        HMC_UNLOCK(ADDR)
    else
        HMC_TRYLOCK(ADDR)
        while LOCK_FAILED do
            HMC_TRYLOCK(ADDR)
        end while
        HMC_UNLOCK(ADDR)
    end if

``hmc_trylock`` responses carry the thread id of the current lock
holder; LOCK_FAILED means "the returned owner id is not mine" (§V.A).
Using one lock address for every thread "will undoubtedly induce a
memory hot spot once the degree of parallelism reaches a sufficient
level" — deliberately, since the experiment measures the scalability
of the HMC queueing structures.

The ``mutex`` workload frontend runs N of these threads for one data
point of Figures 5-7 / Table VI and reports MIN/MAX/AVG cycles as a
:class:`MutexRunStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cmc_ops.mutex import decode_lock_response

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.thread import Program, ThreadCtx

__all__ = [
    "mutex_program",
    "MutexRunStats",
    "DEFAULT_LOCK_ADDR",
    "KERNEL_VERSION",
]

#: Lock placement used by the reproduction runs: one 16-byte block,
#: vault 0 / bank 0 (any single address reproduces the hot spot).
DEFAULT_LOCK_ADDR = 0x0

#: Cycle-semantics tag of this kernel, part of every sweep-cache key.
#: Bump whenever a change alters the simulated results of Algorithm 1
#: (engine-parity golden regeneration is the usual trigger), so stale
#: cached points can never be served as current ones.
KERNEL_VERSION = "mutex-1"

#: Deadlock guard used by the paper sweeps.
DEFAULT_MAX_CYCLES = 1_000_000

#: Watchdog deadline for faulty runs: generous enough that only a
#: genuinely lost response (not hot-spot contention) times out.
FAULT_WATCHDOG_TIMEOUT = 4096


def mutex_program(ctx: ThreadCtx, lock_addr: int = DEFAULT_LOCK_ADDR) -> Program:
    """Algorithm 1 as a thread program.

    An error response (nonzero ERRSTAT, e.g. an injected ``cmc_crash``)
    carries no lock word, so the same op is reissued: a retried trylock
    by the owner returns its own tid, a retried unlock of a freed lock 0.
    """
    lock = ctx.lock(lock_addr)
    rsp = yield lock
    while rsp.errstat:
        rsp = yield lock
    if decode_lock_response(rsp.data) != 1:
        # ThreadCtx caches the packet: bind it once for the spin loop.
        trylock = ctx.trylock(lock_addr)
        tid = ctx.tid_value
        while True:
            rsp = yield trylock
            if not rsp.errstat and decode_lock_response(rsp.data) == tid:
                break
    unlock = ctx.unlock(lock_addr)
    rsp = yield unlock
    while rsp.errstat:
        rsp = yield unlock


@dataclass(frozen=True)
class MutexRunStats:
    """One data point of the paper's sweep."""

    config_name: str
    threads: int
    min_cycle: int
    max_cycle: int
    avg_cycle: float
    total_cycles: int
    send_stalls: int
    cmc_executions: int
    #: Fault occurrences during the run (0 without a fault plan).
    faults_injected: int = 0
    #: Watchdog retransmissions (0 without a fault plan).
    retransmits: int = 0
    #: Online-oracle shadow comparisons (0 when sampling is off).
    oracle_checks: int = 0
