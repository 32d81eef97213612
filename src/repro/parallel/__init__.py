"""Deterministic multiprocess experiment engine.

The paper's evaluation is ~200 fully independent simulations (Algorithm
1 over thread counts 2..100 on two device configurations).  This
package fans such parameter sweeps across a worker pool and reassembles
the results bit-identically to serial execution, with a persistent
on-disk result cache underneath:

* :mod:`repro.parallel.tasks` — picklable task specs, fingerprints,
  cache keys, and the single task-execution function shared by the
  serial path and every worker;
* :mod:`repro.parallel.pool` — :class:`SweepExecutor`: chunked
  scheduling, ordered collection, ``jobs=1`` in-process fallback;
* :mod:`repro.parallel.cache` — :class:`SweepCache`: one JSON file per
  point, keyed by (config fingerprint, component fingerprint, kernel
  version tag, thread count, params), with hit/miss accounting;
* :mod:`repro.parallel.progress` — per-point completion callbacks.

The engine is kernel-agnostic: any future sweep (block-size,
latency-load, window-scaling) parallelizes by giving its workload
frontend a ``task_spec`` — see the ``mutex`` frontend in
:mod:`repro.workloads.adapters` for the pattern; workers execute every
such spec through :func:`repro.workloads.registry.run_spec`.
"""

from repro.parallel.cache import CacheStats, SweepCache, default_cache_root
from repro.parallel.pool import SweepExecutor, resolve_jobs
from repro.parallel.progress import ProgressFn, ProgressPrinter, make_progress, null_progress
from repro.parallel.tasks import (
    TaskSpec,
    cache_key,
    component_fingerprint,
    config_fingerprint,
    decode_result,
    encode_result,
    run_task,
)

__all__ = [
    "CacheStats",
    "SweepCache",
    "default_cache_root",
    "SweepExecutor",
    "resolve_jobs",
    "ProgressFn",
    "ProgressPrinter",
    "make_progress",
    "null_progress",
    "TaskSpec",
    "cache_key",
    "component_fingerprint",
    "config_fingerprint",
    "decode_result",
    "encode_result",
    "run_task",
]
