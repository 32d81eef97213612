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
:mod:`repro.host.kernels.mutex_kernel` for the pattern; workers execute every
such spec through :func:`repro.workloads.registry.run_spec`.
"""

from repro.registry import lazy_exports

#: Imported on first access (``repro.registry.lazy_exports``).
_EXPORTS = {
    "CacheStats": "repro.parallel.cache:CacheStats",
    "SweepCache": "repro.parallel.cache:SweepCache",
    "default_cache_root": "repro.parallel.cache:default_cache_root",
    "SweepExecutor": "repro.parallel.pool:SweepExecutor",
    "resolve_jobs": "repro.parallel.pool:resolve_jobs",
    "ProgressFn": "repro.parallel.progress:ProgressFn",
    "ProgressPrinter": "repro.parallel.progress:ProgressPrinter",
    "make_progress": "repro.parallel.progress:make_progress",
    "null_progress": "repro.parallel.progress:null_progress",
    "TaskSpec": "repro.parallel.tasks:TaskSpec",
    "cache_key": "repro.parallel.tasks:cache_key",
    "component_fingerprint": "repro.parallel.tasks:component_fingerprint",
    "config_fingerprint": "repro.parallel.tasks:config_fingerprint",
    "run_task": "repro.parallel.tasks:run_task",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
