"""DRAM timing extension (paper §VII, Future Work).

The paper deliberately keeps timing data out of the HMC-Sim core to
stay implementation-agnostic, but names "more accurate timing and
power resolution" as the community's most-requested extension.  Under
``HMCConfig(timing="open_page")`` each request holds its target bank
busy for a number of device cycles derived from row-buffer state,
turning the zero-latency bank of the baseline model into an open-page
DRAM.

The default, ``timing="none"``, builds no model and imports nothing
from here: the simulator reproduces the paper's published behaviour
exactly (bank busy time = 0, latency dominated by queueing) — the "No
Simulation Perturbation" requirement honoured.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hmc.commands import CommandInfo, CommandKind
from repro.hmc.components import TimingModel, register_component

__all__ = ["HMCTimingModel", "DEFAULT_TIMING"]


@dataclass(frozen=True)
class HMCTimingModel(TimingModel):
    """Open-page DRAM timing in device cycles.

    Attributes:
        t_cl: column access latency (row-buffer hit cost).
        t_rcd: row-to-column delay (added on a row miss).
        t_rp: precharge time (added when a different row was open).
        atomic_alu_cycles: extra logic-layer cycles for an atomic's
            read-modify-write beyond the column access.
        cmc_alu_cycles: extra logic-layer cycles for a CMC operation
            (plugins model arbitrarily complex logic; this is the
            default charge, overridable per-op via ``cmc_cycles``).
    """

    t_cl: int = 2
    t_rcd: int = 2
    t_rp: int = 2
    atomic_alu_cycles: int = 1
    cmc_alu_cycles: int = 1

    def access_cycles(self, open_row: int, row: int) -> int:
        """Bank busy cycles for a plain access given row-buffer state."""
        if open_row == row:
            return self.t_cl
        if open_row == -1:
            return self.t_rcd + self.t_cl
        return self.t_rp + self.t_rcd + self.t_cl

    def request_cycles(self, info: CommandInfo, open_row: int, row: int) -> int:
        """Total bank busy cycles for one request."""
        base = self.access_cycles(open_row, row)
        if info.kind in (CommandKind.ATOMIC, CommandKind.POSTED_ATOMIC):
            return base + self.atomic_alu_cycles
        if info.kind is CommandKind.CMC:
            return base + self.cmc_alu_cycles
        return base


#: A reasonable default parameterization for the extension benches.
DEFAULT_TIMING = HMCTimingModel()


@register_component("timing", "open_page")
def _open_page(config: object) -> HMCTimingModel:
    """Seam key ``open_page``: :data:`DEFAULT_TIMING`."""
    return DEFAULT_TIMING
