"""The ``chase`` frontend: a serial pointer chase."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.hmc.timing import DEFAULT_TIMING
from repro.host.kernels import pointer_chase
from repro.workloads.base import Footprint, ProgramFactory
from repro.workloads.kernels.base import (
    COMMON,
    NON_NEGATIVE,
    POSITIVE,
    KernelWorkload,
    register_kernel,
)

__all__ = ["PointerChaseWorkload"]


@register_kernel
class PointerChaseWorkload(KernelWorkload):
    """Serial pointer chase: latency per dependent hop."""

    name = "chase"
    description = "pointer-chase latency kernel (sequential or scattered)"
    accepts_sim = False
    cli_kernel = False  # has its own `chase` subcommand (single-thread)
    param_domains = {**COMMON, "length": POSITIVE, "base": NON_NEGATIVE}

    def default_params(self) -> Dict[str, Any]:
        return {
            "length": 64,
            "scatter": False,
            "timing": False,
            "base": 1 << 20,
            "max_cycles": 1_000_000,
        }

    def new_sim(self, config: HMCConfig, params: Dict[str, Any]) -> HMCSim:
        return HMCSim(config, timing=DEFAULT_TIMING if params["timing"] else None)

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        self._head = pointer_chase.build_chain(
            sim, params["base"], params["length"], scatter=params["scatter"]
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        head = getattr(self, "_head", params["base"])
        self._visited: List[int] = []
        visited = self._visited
        return [lambda ctx: pointer_chase.chase_program(ctx, head, visited)]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["base"], params["length"] * 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        visited = getattr(self, "_visited", None)
        if visited is None:
            return None
        return visited == list(range(params["length"]))

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return pointer_chase.PointerChaseStats(
            config_name=sim.config.describe(),
            length=params["length"],
            scattered=params["scatter"],
            timed=params["timing"],
            cycles=result.total_cycles,
            cycles_per_hop=result.total_cycles / params["length"],
            order_correct=self.verify(sim, params, result),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} pointer chase x{s.length} "
            f"({'scattered' if s.scattered else 'sequential'}"
            f"{', timed' if s.timed else ''}): {s.cycles} cycles, "
            f"{s.cycles_per_hop:.2f} cycles/hop, "
            f"order={'ok' if s.order_correct else 'BROKEN'}"
        )
