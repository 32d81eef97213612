"""The multiprocess sweep executor.

:class:`SweepExecutor` fans a list of independent
:class:`~repro.parallel.tasks.TaskSpec` points across a worker pool
and reassembles the results **in submission order**, so a parallel
sweep is bit-identical to the serial one: every point is a pure
function of its spec, and ordering is restored by index, never by
completion time.

Design points:

* **Structural parity.**  ``jobs=1`` does not fork at all — it runs
  :func:`repro.parallel.tasks.run_task` in-process, the *same*
  function every pool worker executes.  There is no separate serial
  code path to drift.
* **Chunked scheduling.**  Points are grouped into contiguous chunks
  (default ~4 chunks per worker) so process spawn and pickle overhead
  amortizes over many short simulations; ``Pool.imap`` preserves chunk
  order.
* **Cache integration.**  Each spec's key is computed once and the
  cache asked before any worker starts; only what it answers
  :data:`~repro.parallel.cache.MISS` for is dispatched, and the parent
  stores those results (single writer, simple accounting).
* **Progress.**  A callback fires once per completed point — cache
  hits first, then computed points in order — see
  :mod:`repro.parallel.progress`.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence

from repro.parallel.cache import MISS, SweepCache
from repro.parallel.progress import ProgressFn, null_progress
from repro.parallel.tasks import TaskSpec, cache_key, run_task

__all__ = ["SweepExecutor", "resolve_jobs"]


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``jobs`` request: 0 or negative means "all cores"."""
    if jobs > 0:
        return jobs
    return os.cpu_count() or 1


def _run_chunk(chunk: List[TaskSpec]) -> List[Any]:
    """Worker entry point: execute one contiguous chunk of specs."""
    return [run_task(spec) for spec in chunk]


class SweepExecutor:
    """Deterministic fan-out of independent simulation points.

    Args:
        jobs: worker processes; 1 runs in-process (no fork), 0 or
            negative uses every core.
        cache: persistent result cache; None disables caching.
        progress: per-point completion hook (see
            :mod:`repro.parallel.progress`).
        chunk_size: specs per worker chunk; default sizes to roughly
            four chunks per worker.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: Optional[SweepCache] = None,
        progress: Optional[ProgressFn] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress or null_progress
        self.chunk_size = chunk_size

    def run(self, specs: Sequence[TaskSpec]) -> List[Any]:
        """Execute every spec; results ordered like ``specs``."""
        specs = list(specs)
        total = len(specs)
        cache = self.cache
        # Ask the cache first; only misses are dispatched.
        if cache is None:
            keys: List[str] = []
            results: List[Any] = [MISS] * total
        else:
            keys = [cache_key(spec) for spec in specs]
            results = [cache.get(key) for key in keys]
        pending = [i for i, result in enumerate(results) if result is MISS]
        done = 0
        for spec, result in zip(specs, results):
            if result is not MISS:
                done += 1
                self.progress(done, total, spec, True)

        def computed(i: int, result: Any) -> None:
            nonlocal done
            if cache is not None:
                cache.put(keys[i], result)
            results[i] = result
            done += 1
            self.progress(done, total, specs[i], False)

        workers = min(self.jobs, len(pending))
        if workers <= 1:
            for i in pending:
                computed(i, run_task(specs[i]))
            return results

        # Imported on fan-out only: a serial or all-cached run never pays
        # for multiprocessing.
        import multiprocessing

        chunks = self._chunk([specs[i] for i in pending], workers)
        order = iter(pending)
        # Explicit terminate-on-error cleanup rather than the bare
        # ``with`` block: a worker exception surfacing from ``imap`` (or
        # a KeyboardInterrupt in the parent) must kill the outstanding
        # workers *and* reap them before the exception propagates —
        # ``Pool.__exit__`` terminates but never joins, which leaves
        # orphaned pool processes behind exactly when a long-lived
        # caller (the serve fleet multiplexes sessions over this pool)
        # would accumulate them.
        pool = multiprocessing.Pool(processes=workers)
        try:
            for chunk_results in pool.imap(_run_chunk, chunks):
                for result in chunk_results:
                    computed(next(order), result)
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
        return results

    def _chunk(self, specs: List[TaskSpec], workers: int) -> List[List[TaskSpec]]:
        """Contiguous chunks, sized to amortize spawn+pickle overhead."""
        if self.chunk_size is not None:
            size = max(1, self.chunk_size)
        else:
            size = max(1, -(-len(specs) // (workers * 4)))
        return [specs[i : i + size] for i in range(0, len(specs), size)]
