"""The ``hist`` frontend: histogram binning."""

from __future__ import annotations

from typing import Any, Dict, List

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.kernels import histogram
from repro.workloads.base import Footprint, ProgramFactory
from repro.workloads.kernels.base import (
    COMMON,
    POSITIVE,
    KernelWorkload,
    register_kernel,
    u64_at,
)

__all__ = ["HistogramWorkload"]


@register_kernel
class HistogramWorkload(KernelWorkload):
    """Histogram binning: atomic INC8, posted P_INC8, or host rmw."""

    name = "hist"
    description = "histogram binning (atomic / posted / rmw increments)"
    accepts_sim = False
    param_domains = {
        **COMMON,
        "samples_per_thread": POSITIVE,
        "bins": POSITIVE,
        "mode": frozenset(("atomic", "posted", "rmw")),
    }

    _BINS_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "samples_per_thread": 32,
            "bins": 16,
            "mode": "atomic",
            "seed": 99,
            "max_cycles": 2_000_000,
        }

    @staticmethod
    def _samples(params: Dict[str, Any]) -> List[int]:
        return histogram.skewed_samples(
            params["seed"],
            params["threads"] * params["samples_per_thread"],
            params["bins"],
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        spt = params["samples_per_thread"]
        samples = self._samples(params)
        mode = params["mode"]
        return [
            lambda ctx, chunk=samples[t * spt : (t + 1) * spt]: histogram.hist_program(
                ctx, self._BINS_BASE, chunk, mode
            )
            for t in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((self._BINS_BASE, params["bins"] * 16),)

    def finish(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if params["mode"] == "posted":
            # Posted increments may still be in flight when programs finish.
            sim.drain()

    def _lost_updates(self, sim: HMCSim, params: Dict[str, Any]) -> int:
        """Increments missing from the bins versus the sample stream."""
        ref = [0] * params["bins"]
        for s in self._samples(params):
            ref[s] += 1
        bins = sim.mem_read(self._BINS_BASE, params["bins"] * 16)
        return sum(ref[b] - u64_at(bins, b) for b in range(params["bins"]))

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        if params["mode"] == "rmw":
            return None  # lost updates are the point of the rmw mode
        return self._lost_updates(sim, params) == 0

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        lost = self._lost_updates(sim, params)
        flits = sim.link_flits()
        n = params["threads"] * params["samples_per_thread"]
        return histogram.HistogramStats(
            config_name=sim.config.describe(),
            mode=params["mode"],
            threads=params["threads"],
            samples=n,
            bins=params["bins"],
            cycles=result.total_cycles,
            requests=sum(t.requests for t in result.threads),
            flits=flits,
            flits_per_sample=flits / n,
            exact=lost == 0,
            lost_updates=lost,
        )

    def cli_variants(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [dict(params, mode=mode) for mode in ("rmw", "atomic", "posted")]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} histogram ({s.mode}): {s.cycles} cycles, "
            f"{s.flits_per_sample:.1f} flits/sample, exact={s.exact}"
        )
