"""Occupancy and bandwidth instrumentation.

The paper's §V.C analysis reasons about "the distributions of requests
across the ... links and their associated request and crossbar queuing
structures".  This module makes those distributions measurable: a
:class:`SimSampler` attached to a simulation snapshots queue
occupancies and cumulative link FLIT counters at a fixed cadence,
producing per-resource time series and summary statistics (peak and
mean occupancy, delivered bandwidth per link) without perturbing the
simulation (sampling is read-only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.hmc.sim import HMCSim

__all__ = ["OccupancySeries", "SimSampler"]

#: How a vault's request queue name ends (``dev0.vault3.rqst``); the
#: crossbar's end ``xbar_rqst`` / ``xbar_rsp``.
_VAULT_QUEUE = ".rqst"


@dataclass
class OccupancySeries:
    """One resource's sampled occupancy over time."""

    name: str
    samples: List[int] = field(default_factory=list)

    @property
    def peak(self) -> int:
        """Highest sampled occupancy."""
        return max(self.samples) if self.samples else 0

    @property
    def mean(self) -> float:
        """Mean sampled occupancy."""
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def nonzero_fraction(self) -> float:
        """Fraction of samples with any occupancy (utilization proxy)."""
        if not self.samples:
            return 0.0
        return sum(1 for s in self.samples if s > 0) / len(self.samples)


class SimSampler:
    """Samples a context's queues and links every ``interval`` cycles.

    Usage::

        sampler = SimSampler(sim, interval=1)
        ...  # run the workload, calling sampler.tick() after each clock
        print(sampler.report())

    The host engines do not call this automatically (zero overhead when
    unused); wrap the clock loop or use :meth:`run_sampled`.
    """

    def __init__(self, sim: HMCSim, interval: int = 1):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.sim = sim
        self.interval = interval
        self.cycles_sampled = 0
        #: One series per device queue, in ``Device.queues`` order; a
        #: vault's request queue is labelled by its vault.
        self._queues = [
            (q, OccupancySeries(q.name.removesuffix(_VAULT_QUEUE)))
            for device in sim.devices
            for q in device.queues
        ]
        #: Cumulative fault counters per kind (only when a fault plan
        #: is attached); a series' growth locates fault bursts in time.
        self._fault_series: Dict[str, OccupancySeries] = {}
        self._first_cycle: Optional[int] = None
        self._last_cycle: Optional[int] = None
        self._flits_at_start: Optional[int] = None

    def tick(self) -> None:
        """Take one sample if the cadence allows."""
        cycle = self.sim.cycle
        if self._first_cycle is None:
            self._first_cycle = cycle
            self._flits_at_start = self.sim.link_flits()
        if cycle % self.interval != 0:
            return
        self._last_cycle = cycle
        self.cycles_sampled += 1
        for q, series in self._queues:
            series.samples.append(len(q._q))
        faults = self.sim.faults
        if faults is not None:
            table = self._fault_series
            for kind, count in faults.counters().items():
                if kind not in table:
                    table[kind] = OccupancySeries(kind)
                table[kind].samples.append(count)

    def run_sampled(self, cycles: int) -> None:
        """Clock the context ``cycles`` times, sampling after each."""
        for _ in range(cycles):
            self.sim.clock()
            self.tick()

    # -- results ---------------------------------------------------------------

    def _table(self, vaults: bool) -> Dict[str, OccupancySeries]:
        return {
            series.name: series
            for q, series in self._queues
            if self.cycles_sampled and q.name.endswith(_VAULT_QUEUE) == vaults
        }

    @property
    def vault_series(self) -> Dict[str, OccupancySeries]:
        """Per-vault request-queue occupancy series."""
        return self._table(vaults=True)

    @property
    def xbar_series(self) -> Dict[str, OccupancySeries]:
        """Per-crossbar-queue occupancy series."""
        return self._table(vaults=False)

    @property
    def fault_series(self) -> Dict[str, OccupancySeries]:
        """Cumulative fault-counter series per fault kind (empty when
        no fault plan is attached)."""
        return self._fault_series

    def hottest_vaults(self, n: int = 5) -> List[OccupancySeries]:
        """The ``n`` vaults with the highest peak occupancy."""
        return sorted(
            self.vault_series.values(), key=lambda s: s.peak, reverse=True
        )[:n]

    def link_bandwidth(self) -> float:
        """Delivered FLITs per cycle across all links since sampling began."""
        if self._last_cycle is None or self._last_cycle == self._first_cycle:
            return 0.0
        moved = self.sim.link_flits() - (self._flits_at_start or 0)
        return moved / (self._last_cycle - self._first_cycle)

    def report(self) -> str:
        """Human-readable summary."""
        lines = [
            f"sampled {self.cycles_sampled} points over cycles "
            f"{self._first_cycle}..{self._last_cycle}",
            f"delivered link bandwidth: {self.link_bandwidth():.2f} FLITs/cycle",
        ]
        hot = self.hottest_vaults(3)
        if hot:
            lines.append(
                "hottest vault queues: "
                + ", ".join(
                    f"{s.name} (peak {s.peak}, mean {s.mean:.1f})" for s in hot
                )
            )
        busiest_xbar = sorted(
            self.xbar_series.values(), key=lambda s: s.peak, reverse=True
        )[:2]
        if busiest_xbar:
            lines.append(
                "busiest crossbar queues: "
                + ", ".join(f"{s.name} (peak {s.peak})" for s in busiest_xbar)
            )
        if self._fault_series:
            lines.append(
                "faults (cumulative): "
                + ", ".join(
                    f"{name}={series.samples[-1]}"
                    for name, series in sorted(self._fault_series.items())
                    if series.samples
                )
            )
        return "\n".join(lines)
