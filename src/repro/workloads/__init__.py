"""The unified workload frontend.

Every way of driving the simulated device — the nine hand-written
kernels, recorded-trace replay, task-graph scenarios — lives behind
one seam: :class:`~repro.workloads.base.WorkloadFrontend`, resolved by
string name through :data:`~repro.workloads.registry.WORKLOADS`.

Submodules import lazily (``from repro.workloads import WORKLOADS``
does not pull in the kernel catalog until the first lookup):

- :mod:`repro.workloads.base` — the frontend ABC and its ``run``, the
  single driver (resolve params → context → ``prepare`` → engine →
  ``build`` → run → ``finish`` → ``stats``).
- :mod:`repro.workloads.registry` — the string-keyed registry.
- :mod:`repro.workloads.adapters` — the nine kernels as native
  frontends (the module name is historical; nothing is adapted).
- :mod:`repro.workloads.tracefmt` — the versioned JSONL trace format.
- :mod:`repro.workloads.replay` — trace record/replay.
- :mod:`repro.workloads.graph` — the task-graph runtime.
"""

from __future__ import annotations

__all__ = [
    "WorkloadFrontend",
    "WORKLOADS",
    "register_workload",
    "WorkloadTrace",
    "TraceRecorder",
    "record_workload",
    "replay_trace",
    "replay_open_loop",
    "trace_from_tracer",
    "TaskGraph",
    "TaskNode",
    "run_task_graph",
]

_EXPORTS = {
    "WorkloadFrontend": ("repro.workloads.base", "WorkloadFrontend"),
    "WORKLOADS": ("repro.workloads.registry", "WORKLOADS"),
    "register_workload": ("repro.workloads.registry", "register_workload"),
    "WorkloadTrace": ("repro.workloads.tracefmt", "WorkloadTrace"),
    "trace_from_tracer": ("repro.workloads.tracefmt", "trace_from_tracer"),
    "TraceRecorder": ("repro.workloads.replay", "TraceRecorder"),
    "record_workload": ("repro.workloads.replay", "record_workload"),
    "replay_trace": ("repro.workloads.replay", "replay_trace"),
    "replay_open_loop": ("repro.workloads.replay", "replay_open_loop"),
    "TaskGraph": ("repro.workloads.graph", "TaskGraph"),
    "TaskNode": ("repro.workloads.graph", "TaskNode"),
    "run_task_graph": ("repro.workloads.graph", "run_task_graph"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
