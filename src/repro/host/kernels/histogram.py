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
from typing import List, Sequence

from repro.host.thread import Program, ThreadCtx

__all__ = ["hist_program", "skewed_samples", "HistogramStats"]


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
