"""The ``barrier`` frontend: a sense-reversing barrier."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.hmc.config import HMCConfig
from repro.hmc.packet import MAX_TAG
from repro.hmc.sim import HMCSim
from repro.host.kernels import barrier
from repro.workloads.base import Footprint, ProgramFactory
from repro.workloads.kernels.base import (
    COMMON,
    NON_NEGATIVE,
    POSITIVE,
    KernelWorkload,
    register_kernel,
)

__all__ = ["BarrierWorkload"]


@register_kernel
class BarrierWorkload(KernelWorkload):
    """Sense-reversing barrier over the fadd64 CMC op."""

    name = "barrier"
    description = "sense-reversing barrier (CMC04 fadd64 arrival counter)"
    param_domains = {
        **COMMON,
        "threads": (2, MAX_TAG + 1),  # a barrier of one never waits
        "rounds": POSITIVE,
        "addr": NON_NEGATIVE,
    }

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 8,
            "rounds": 4,
            "addr": 0x0,
            "max_cycles": 2_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if sim.cmc.lookup(4) is None:
            sim.load_cmc("repro.cmc_ops.fadd64")
        sim.mem_write(params["addr"], bytes(16))

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        addr, threads, rounds = params["addr"], params["threads"], params["rounds"]
        self._log: List = []
        log = self._log
        return [
            lambda ctx: barrier.barrier_program(ctx, addr, threads, rounds, log)
            for _ in range(threads)
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["addr"], 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        log = getattr(self, "_log", None)
        if log is None:
            return None
        return barrier.check_order(log, params["threads"], params["rounds"])

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return barrier.BarrierStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            rounds=params["rounds"],
            total_cycles=result.total_cycles,
            cycles_per_round=result.total_cycles / params["rounds"],
            order_correct=self.verify(sim, params, result),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} barrier x{s.threads}: {s.rounds} rounds, "
            f"{s.total_cycles} cycles ({s.cycles_per_round:.1f}/round), "
            f"order={'ok' if s.order_correct else 'BROKEN'}"
        )
