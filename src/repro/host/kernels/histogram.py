"""Shared-counter histogram: atomic ``INC8`` vs host read-modify-write.

The paper's §III motivates the Gen2 atomics with the shared-counter
example behind Table II: an atomic increment done cache-side costs a
full read-modify-write of a 64-byte line, while the HMC ``INC8``
command costs one request FLIT and one response FLIT.  This kernel
turns that argument into a live workload: many threads bin a data
stream into a histogram of shared counters using either

* **atomic** mode — one ``INC8`` per sample (or posted ``P_INC8``), or
* **rmw** mode — RD16 + host increment + WR16 per sample (the
  cache-style protocol; exact only without concurrent binning of the
  same bucket, which is precisely the hazard atomics remove).

The FLIT counts reported per sample reproduce the Table II ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.kernels.base import (
    COMMON,
    POSITIVE,
    KernelWorkload,
    register_kernel,
    u64_at,
)
from repro.host.thread import Program, ThreadCtx
from repro.workloads.base import Footprint, ProgramFactory

__all__ = [
    "hist_program",
    "skewed_samples",
    "HistogramStats",
    "HistogramWorkload",
]


def skewed_samples(seed: int, count: int, num_bins: int) -> List[int]:
    """Deterministic skewed sample stream (low bins hotter)."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    samples: List[int] = []
    for _ in range(count):
        state = (state * 2862933555777941757 + 3037000493) & 0xFFFFFFFFFFFFFFFF
        samples.append(int(((state >> 11) / (1 << 53)) ** 2 * num_bins))
    return samples


def hist_program(
    ctx: ThreadCtx, bins_base: int, samples: Sequence[int], mode: str
) -> Program:
    """One increment per sample: INC8, posted P_INC8, or RD16+WR16."""
    for bucket in samples:
        addr = bins_base + bucket * 16
        if mode == "atomic":
            yield ctx.inc8(addr)
        elif mode == "posted":
            yield ctx.inc8(addr, posted=True)
        else:  # rmw
            rsp = yield ctx.read(addr, 16)
            count = int.from_bytes(rsp.data[:8], "little") + 1
            yield ctx.write(addr, count.to_bytes(8, "little") + rsp.data[8:])


@dataclass(frozen=True)
class HistogramStats:
    """Result of one histogram run."""

    config_name: str
    mode: str
    threads: int
    samples: int
    bins: int
    cycles: int
    requests: int
    #: FLITs moved across the links (request + response).
    flits: int
    flits_per_sample: float
    #: True when every bin count matches the reference exactly.
    exact: bool
    #: Total increments lost to read-modify-write races (0 in atomic mode).
    lost_updates: int


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
        return skewed_samples(
            params["seed"],
            params["threads"] * params["samples_per_thread"],
            params["bins"],
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        spt = params["samples_per_thread"]
        samples = self._samples(params)
        mode = params["mode"]
        return [
            lambda ctx, chunk=samples[t * spt : (t + 1) * spt]: hist_program(
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
        return HistogramStats(
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
