"""The string-keyed workload registry.

:data:`WORKLOADS` is a :class:`repro.registry.Registry` of
:class:`~repro.workloads.base.WorkloadFrontend` classes keyed by their
``name``.  Consumers resolve by name; ``get`` returns a *fresh
instance* per call, so frontends may keep per-run state (a loaded
trace, a built graph) without leaking it across runs.  The built-ins
register themselves with :func:`register_workload` in the modules that
define them, which are the registry's catalog: it imports them on first
lookup, so importing this module (e.g. from :mod:`repro.parallel.tasks`
for cache-key fingerprints) stays cheap and cycle-free.
"""

from __future__ import annotations

from typing import Any, Type

from repro.errors import WorkloadError
from repro.registry import Registry
from repro.workloads.base import WorkloadFrontend

__all__ = ["WORKLOADS", "register_workload", "run_spec"]

#: The process-wide registry, populated by the catalog on first lookup.
#: Fingerprints (``w`` + 16 hex digits) fold the class identity and its
#: declared ``version`` into every dependent sweep cache key.
WORKLOADS: Registry[Type[WorkloadFrontend]] = Registry(
    "workload",
    WorkloadError,
    catalog=(
        "repro.workloads.adapters",
        "repro.workloads.replay",
        "repro.workloads.graph",
    ),
    fresh=True,
    tag="w",
    columns=("kind", "description"),
)


def register_workload(
    frontend: Type[WorkloadFrontend], *, replace: bool = False
) -> Type[WorkloadFrontend]:
    """Register a frontend under its ``name`` (decorator-friendly).

    Duplicate names raise unless ``replace=True`` (tests swap
    implementations to prove cache keys cannot alias).
    """
    return WORKLOADS.register(frontend.name, frontend, replace=replace)


def run_spec(spec: Any) -> Any:
    """Execute a :class:`~repro.parallel.tasks.TaskSpec` a frontend's
    ``task_spec`` built — the sweep workers' entry point, resolved by
    dotted path so specs stay picklable."""
    return WORKLOADS.get(spec.kernel).run(
        spec.config,
        {"threads": spec.threads, **spec.param_dict()},
        fault_plan=spec.fault_plan,
    )
