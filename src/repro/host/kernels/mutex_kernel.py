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

The ``mutex`` workload frontend, :class:`MutexWorkload`, runs N of
these threads for one data point of Figures 5-7 / Table VI and reports
MIN/MAX/AVG cycles as a :class:`MutexRunStats`.  It imports the engine,
the watchdog and the sweep's task type only inside the methods that use
them: a cache-answered sweep decodes :class:`MutexRunStats` from here
without loading the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List

from repro.cmc_ops.mutex import decode_lock_response, init_lock, load_mutex_ops
from repro.host.kernels.base import (
    COMMON,
    NON_NEGATIVE,
    POSITIVE,
    KernelWorkload,
    register_kernel,
    u64_at,
)
from repro.workloads.base import Footprint, ProgramFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hmc.config import HMCConfig
    from repro.hmc.sim import HMCSim
    from repro.host.thread import Program, ThreadCtx
    from repro.parallel.tasks import TaskSpec

__all__ = [
    "mutex_program",
    "MutexRunStats",
    "DEFAULT_LOCK_ADDR",
    "KERNEL_VERSION",
    "MutexWorkload",
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


@register_kernel
class MutexWorkload(KernelWorkload):
    """Algorithm 1: the paper's lock/trylock/unlock contention kernel."""

    name = "mutex"
    description = "Algorithm-1 lock contention (the paper's §V.B sweep)"
    supports_faults = True
    recordable = True
    # The kernel's own version tag feeds the registry fingerprint, so
    # the historical "bump KERNEL_VERSION on semantic change" discipline
    # keeps invalidating cached sweep points.
    version = KERNEL_VERSION
    param_domains = {
        **COMMON,
        "lock_addr": NON_NEGATIVE,
        "oracle_sample": POSITIVE,
    }

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "lock_addr": DEFAULT_LOCK_ADDR,
            "max_cycles": DEFAULT_MAX_CYCLES,
            # 1-in-N online oracle sampling; None = off.  Incompatible
            # with a fault plan (the engine refuses the pair).
            "oracle_sample": None,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        # Guard on this bundle's own command codes, not "any ops": a
        # warm context (serve session) may already carry a different
        # workload's CMC family.
        if sim.cmc.lookup(125) is None:
            load_mutex_ops(sim)
        init_lock(sim, params["lock_addr"])

    def new_engine(self, sim: HMCSim, params: Dict[str, Any], fault_plan: Any):
        from repro.host.engine import HostEngine

        if fault_plan is not None and sim.faults is None:
            sim.attach_faults(fault_plan)
        # A faulty run gets a per-tag watchdog: dropped responses are
        # retransmitted instead of deadlocking the sweep.
        watchdog = None
        if sim.faults is not None:
            from repro.faults.watchdog import TagWatchdog

            watchdog = TagWatchdog(timeout=FAULT_WATCHDOG_TIMEOUT)
        return HostEngine(
            sim,
            max_cycles=params["max_cycles"],
            watchdog=watchdog,
            oracle_sample=params["oracle_sample"],
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        lock_addr = params["lock_addr"]
        return [
            lambda ctx: mutex_program(ctx, lock_addr)
            for _ in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["lock_addr"], 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        # Every thread unlocks on its way out: the lock word ends free.
        return u64_at(sim.mem_read(params["lock_addr"], 8), 0) == 0

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return MutexRunStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            min_cycle=result.min_cycle,
            max_cycle=result.max_cycle,
            avg_cycle=result.avg_cycle,
            total_cycles=result.total_cycles,
            send_stalls=result.send_stalls,
            cmc_executions=sum(op.executions for op in sim.cmc.operations()),
            faults_injected=(
                sum(sim.faults.counters().values()) if sim.faults is not None else 0
            ),
            retransmits=result.retransmits,
            oracle_checks=result.oracle_checks,
        )

    def task_spec(
        self,
        config: HMCConfig,
        threads: int,
        *,
        lock_addr: int = DEFAULT_LOCK_ADDR,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        fault_plan: Any = None,
    ) -> TaskSpec:
        """One picklable sweep point for the parallel experiment engine.

        A worker process reproduces the point from scratch through the
        registry (:func:`repro.workloads.registry.run_spec`); the cache
        key folds in the registry fingerprint plus the config and
        component fingerprints — and the fault-plan fingerprint when
        one is attached (see :mod:`repro.parallel.tasks`).
        """
        from repro.parallel.tasks import TaskSpec

        return TaskSpec(
            kernel=self.name,
            kernel_version=self.version,
            runner="repro.workloads.registry:run_spec",
            config=config,
            threads=threads,
            params=(("lock_addr", lock_addr), ("max_cycles", max_cycles)),
            fault_plan=fault_plan,
        )

    def format_stats(self, s, fault_plan=None) -> str:
        line = (
            f"{s.config_name} mutex x{s.threads}: min={s.min_cycle} "
            f"max={s.max_cycle} avg={s.avg_cycle:.2f} "
            f"(cmc executions: {s.cmc_executions})"
        )
        if fault_plan is not None:
            line += (
                f" [{fault_plan.describe()}: {s.faults_injected} faults, "
                f"{s.retransmits} retransmits]"
            )
        if s.oracle_checks:
            line += f" [oracle: {s.oracle_checks} checks, 0 divergences]"
        return line
