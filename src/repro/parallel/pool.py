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
* **Cache integration.**  Hits are resolved in the parent before any
  worker starts; only misses are dispatched, and their results are
  stored by the parent (single writer, simple accounting).
* **Progress.**  A callback fires once per completed point — cache
  hits first, then computed points in order — see
  :mod:`repro.parallel.progress`.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence

from repro.parallel.cache import SweepCache
from repro.parallel.progress import ProgressFn, null_progress
from repro.parallel.tasks import TaskSpec, cache_key, decode_result, encode_result, run_task

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
        mp_context: multiprocessing start-method context; default is
            the platform default (``fork`` on Linux — cheap and
            sufficient since specs carry everything workers need).
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: Optional[SweepCache] = None,
        progress: Optional[ProgressFn] = None,
        chunk_size: Optional[int] = None,
        mp_context: Optional[Any] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress or null_progress
        self.chunk_size = chunk_size
        self.mp_context = mp_context

    def run(self, specs: Sequence[TaskSpec]) -> List[Any]:
        """Execute every spec; results ordered like ``specs``."""
        specs = list(specs)
        total = len(specs)
        results: List[Any] = [None] * total
        done = 0

        # Resolve cache hits up front; only misses are dispatched.
        pending: List[int] = []
        if self.cache is not None:
            for i, spec in enumerate(specs):
                payload = self.cache.get(cache_key(spec))
                if payload is None:
                    pending.append(i)
                else:
                    results[i] = decode_result(payload)
                    done += 1
                    self.progress(done, total, spec, True)
        else:
            pending = list(range(total))

        if not pending:
            return results

        workers = min(self.jobs, len(pending))
        if workers <= 1:
            for i in pending:
                results[i] = self._finish(specs[i], run_task(specs[i]))
                done += 1
                self.progress(done, total, specs[i], False)
            return results

        # Imported on fan-out only: a serial or all-cached run never pays
        # for multiprocessing.
        import multiprocessing

        chunks = self._chunk([specs[i] for i in pending], workers)
        ctx = self.mp_context or multiprocessing.get_context()
        cursor = 0
        # Explicit terminate-on-error cleanup rather than the bare
        # ``with`` block: a worker exception surfacing from ``imap`` (or
        # a KeyboardInterrupt in the parent) must kill the outstanding
        # workers *and* reap them before the exception propagates —
        # ``Pool.__exit__`` terminates but never joins, which leaves
        # orphaned pool processes behind exactly when a long-lived
        # caller (the serve fleet multiplexes sessions over this pool)
        # would accumulate them.
        pool = ctx.Pool(processes=workers)
        try:
            for chunk_results in pool.imap(_run_chunk, chunks):
                for result in chunk_results:
                    i = pending[cursor]
                    cursor += 1
                    results[i] = self._finish(specs[i], result)
                    done += 1
                    self.progress(done, total, specs[i], False)
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
        return results

    def _finish(self, spec: TaskSpec, result: Any) -> Any:
        if self.cache is not None:
            self.cache.put(cache_key(spec), encode_result(result))
        return result

    def _chunk(self, specs: List[TaskSpec], workers: int) -> List[List[TaskSpec]]:
        """Contiguous chunks, sized to amortize spawn+pickle overhead."""
        if self.chunk_size is not None:
            size = max(1, self.chunk_size)
        else:
            size = max(1, -(-len(specs) // (workers * 4)))
        return [specs[i : i + size] for i in range(0, len(specs), size)]
