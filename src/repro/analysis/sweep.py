"""The paper's thread sweep (Figures 5-7 / Table VI), with caching.

One full sweep runs Algorithm 1 for every thread count from 2 to 100
on both the 4Link-4GB and 8Link-8GB configurations.  The three figures
and Table VI are all views of the same sweep, so results are cached at
two levels:

* a small **in-process memo** (bounded LRU) returning the *same*
  :class:`MutexSweep` object for a repeated request, so the figure
  benches share one simulation pass exactly like the paper's data
  collection;
* the **persistent on-disk cache** of :mod:`repro.parallel.cache`,
  keyed per point by (config fingerprint, component fingerprint,
  workload fingerprint, thread count) — precise enough that component
  overrides can never alias, and shared across processes and sessions.

Sweep points are built through the workload registry
(``WORKLOADS.get("mutex").task_spec(...)``), not by importing the
kernel module directly, so the sweep follows whatever implementation
the registry resolves for ``"mutex"``.

``jobs=N`` fans the sweep's independent points across a worker pool
(:class:`repro.parallel.pool.SweepExecutor`); results are reassembled
in axis order, so a parallel sweep is bit-identical to ``jobs=1``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.hmc.config import HMCConfig
from repro.host.kernels.mutex_kernel import MutexRunStats
from repro.parallel.cache import SweepCache
from repro.parallel.pool import SweepExecutor
from repro.parallel.progress import ProgressFn
from repro.parallel.tasks import cache_key
from repro.workloads.registry import WORKLOADS

__all__ = ["MutexSweep", "run_mutex_sweep", "PAPER_THREAD_RANGE"]

#: The paper varies "the number of threads from two to one hundred".
PAPER_THREAD_RANGE: Tuple[int, ...] = tuple(range(2, 101))


@dataclass
class MutexSweep:
    """Results of one configuration's sweep over thread counts."""

    config_name: str
    runs: List[MutexRunStats] = field(default_factory=list)

    @property
    def threads(self) -> List[int]:
        """The thread-count axis."""
        return [r.threads for r in self.runs]

    @property
    def min_cycles(self) -> List[int]:
        """Figure 5 series: MIN_CYCLE per thread count."""
        return [r.min_cycle for r in self.runs]

    @property
    def max_cycles(self) -> List[int]:
        """Figure 6 series: MAX_CYCLE per thread count."""
        return [r.max_cycle for r in self.runs]

    @property
    def avg_cycles(self) -> List[float]:
        """Figure 7 series: AVG_CYCLE per thread count."""
        return [r.avg_cycle for r in self.runs]

    def table6_row(self) -> Tuple[str, int, int, float]:
        """Table VI row: (device, overall min, worst max, worst avg)."""
        return (
            self.config_name,
            min(self.min_cycles),
            max(self.max_cycles),
            max(self.avg_cycles),
        )

    def worst_case(self) -> MutexRunStats:
        """The run with the highest MAX_CYCLE (the §V.C 'worst case')."""
        return max(self.runs, key=lambda r: r.max_cycle)


# In-process identity memo: a repeated request for the same sweep (same
# per-point cache keys, i.e. same config, components, workload
# fingerprint, and axis) returns the same MutexSweep object.  Bounded, unlike the
# retired module-level _CACHE dict it replaces; the durable layer is
# the per-point disk cache.
_MEMO: "OrderedDict[Tuple[str, ...], MutexSweep]" = OrderedDict()
_MEMO_MAX = 32


def run_mutex_sweep(
    config: HMCConfig,
    thread_counts: Optional[Sequence[int]] = None,
    *,
    use_cache: bool = True,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
    progress: Optional[ProgressFn] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> MutexSweep:
    """Run (or fetch the cached) Algorithm-1 sweep for one configuration.

    Args:
        config: device configuration.
        thread_counts: thread counts to sweep (default: the paper's
            2..100).
        use_cache: reuse earlier work — the in-process memo and the
            persistent per-point disk cache.  False bypasses both and
            recomputes every point.
        jobs: worker processes for the sweep's independent points;
            1 (default) runs in-process, 0 uses every core.  Results
            are bit-identical for any value.
        cache: explicit disk cache instance (default location
            otherwise; see :func:`repro.parallel.cache.default_cache_root`).
        progress: per-point completion callback
            (:mod:`repro.parallel.progress`).
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan`
            attached to every point.  The plan fingerprint becomes part
            of each point's cache key, so faulty and fault-free sweeps
            never share cache entries.
    """
    counts = tuple(thread_counts) if thread_counts is not None else PAPER_THREAD_RANGE
    frontend = WORKLOADS.get("mutex")
    specs = [frontend.task_spec(config, n, fault_plan=fault_plan) for n in counts]
    memo_key = tuple(cache_key(s) for s in specs)
    if use_cache and memo_key in _MEMO:
        _MEMO.move_to_end(memo_key)
        return _MEMO[memo_key]
    if use_cache and cache is None:
        cache = SweepCache()
    executor = SweepExecutor(
        jobs=jobs, cache=cache if use_cache else None, progress=progress
    )
    sweep = MutexSweep(config_name=config.describe(), runs=executor.run(specs))
    if use_cache:
        _MEMO[memo_key] = sweep
        while len(_MEMO) > _MEMO_MAX:
            _MEMO.popitem(last=False)
    return sweep
