"""The ``mutex`` frontend: the paper's Algorithm 1."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cmc_ops.mutex import init_lock, load_mutex_ops
from repro.faults.watchdog import TagWatchdog
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from repro.host.kernels import mutex_kernel
from repro.parallel.tasks import TaskSpec
from repro.workloads.base import Footprint, ProgramFactory
from repro.workloads.kernels.base import (
    COMMON,
    NON_NEGATIVE,
    POSITIVE,
    KernelWorkload,
    register_kernel,
    u64_at,
)

__all__ = ["MutexWorkload"]


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
    version = mutex_kernel.KERNEL_VERSION
    param_domains = {
        **COMMON,
        "lock_addr": NON_NEGATIVE,
        "oracle_sample": POSITIVE,
    }

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "lock_addr": mutex_kernel.DEFAULT_LOCK_ADDR,
            "max_cycles": mutex_kernel.DEFAULT_MAX_CYCLES,
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
        if fault_plan is not None and sim.faults is None:
            sim.attach_faults(fault_plan)
        # A faulty run gets a per-tag watchdog: dropped responses are
        # retransmitted instead of deadlocking the sweep.
        watchdog = (
            TagWatchdog(timeout=mutex_kernel.FAULT_WATCHDOG_TIMEOUT)
            if sim.faults is not None
            else None
        )
        return HostEngine(
            sim,
            max_cycles=params["max_cycles"],
            watchdog=watchdog,
            oracle_sample=params["oracle_sample"],
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        lock_addr = params["lock_addr"]
        return [
            lambda ctx: mutex_kernel.mutex_program(ctx, lock_addr)
            for _ in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["lock_addr"], 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        # Every thread unlocks on its way out: the lock word ends free.
        return u64_at(sim.mem_read(params["lock_addr"], 8), 0) == 0

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return mutex_kernel.MutexRunStats(
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
        lock_addr: int = mutex_kernel.DEFAULT_LOCK_ADDR,
        max_cycles: int = mutex_kernel.DEFAULT_MAX_CYCLES,
        fault_plan: Any = None,
    ) -> TaskSpec:
        """One picklable sweep point for the parallel experiment engine.

        A worker process reproduces the point from scratch through the
        registry (:func:`repro.workloads.registry.run_spec`); the cache
        key folds in the registry fingerprint plus the config and
        component fingerprints — and the fault-plan fingerprint when
        one is attached (see :mod:`repro.parallel.tasks`).
        """
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
