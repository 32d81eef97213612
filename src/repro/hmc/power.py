"""Power/energy accounting extension (paper §VII, Future Work).

Companion to :mod:`repro.hmc.timing`: ``power="energy"`` selects a
per-operation energy model.  Each executed request is charged a
FLIT-proportional link transfer cost plus an operation cost (DRAM
activate/column access and, for atomics and CMC ops, logic-layer ALU
energy).  Totals accumulate per command name, so a simulation reports
where its energy went: the cost side of the paper's cost-benefit
motivation for CMC research (§I).

All figures are simple defaults in picojoules; they are parameters, not
claims about any specific HMC implementation (the paper is explicit
that per-implementation data stays out of the core).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.hmc.commands import CommandInfo, CommandKind
from repro.hmc.components import PowerModel, Stateful, register_component

__all__ = ["HMCPowerModel", "PowerReport"]


@dataclass
class PowerReport(Stateful):
    """Accumulated energy, broken down by operation name."""

    STATE = {"energy_pj": {}, "ops": {}}
    energy_pj: Dict[str, float] = field(default_factory=dict)
    ops: Dict[str, int] = field(default_factory=dict)

    def add(self, op: str, pj: float) -> None:
        """Charge ``pj`` picojoules to operation ``op``."""
        self.energy_pj[op] = self.energy_pj.get(op, 0.0) + pj
        self.ops[op] = self.ops.get(op, 0) + 1

    @property
    def total_pj(self) -> float:
        """Total accumulated energy in picojoules."""
        return sum(self.energy_pj.values())

    def average_pj(self, op: str) -> float:
        """Mean energy per execution of ``op`` (0 when never executed)."""
        n = self.ops.get(op, 0)
        return self.energy_pj.get(op, 0.0) / n if n else 0.0


@dataclass(frozen=True)
class HMCPowerModel(PowerModel):
    """Per-operation energy parameters (picojoules).

    Attributes:
        pj_per_flit: SerDes + crossbar transfer energy per FLIT moved
            (request and response both charged).
        pj_dram_access: one DRAM activate + column access.
        pj_atomic_alu: logic-layer ALU energy for a built-in atomic.
        pj_cmc_alu: default logic-layer energy for a CMC operation.
    """

    pj_per_flit: float = 7.0
    pj_dram_access: float = 110.0
    pj_atomic_alu: float = 4.0
    pj_cmc_alu: float = 6.0

    def request_energy(self, info: CommandInfo, rqst_flits: int, rsp_flits: int) -> float:
        """Energy for one completed request (transfer + operation)."""
        pj = (rqst_flits + rsp_flits) * self.pj_per_flit
        if info.kind is not CommandKind.FLOW:
            pj += self.pj_dram_access
        if info.kind in (CommandKind.ATOMIC, CommandKind.POSTED_ATOMIC):
            pj += self.pj_atomic_alu
        elif info.kind is CommandKind.CMC:
            pj += self.pj_cmc_alu
        return pj

    def new_report(self) -> PowerReport:
        """An empty :class:`PowerReport`."""
        return PowerReport()


@register_component("power", "energy")
def _energy(config: object) -> HMCPowerModel:
    """Seam key ``energy``: the default :class:`HMCPowerModel`."""
    return HMCPowerModel()
