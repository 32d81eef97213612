"""The string-keyed workload registry.

Mirrors :class:`repro.hmc.components.ComponentRegistry`: frontends
register under string names, consumers resolve by name, and the module
that names concrete frontend classes is the catalog composition root
(:mod:`repro.workloads.catalog`) — enforced by the workload-containment
lint in ``scripts/lint_no_function_imports.py``.

The module-level :data:`WORKLOADS` singleton loads the catalog lazily
on first lookup, so importing this module (e.g. from
:mod:`repro.parallel.tasks` for cache-key fingerprints) stays cheap and
cycle-free.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable, Dict, List, Tuple, Type

from repro.errors import WorkloadError
from repro.workloads.base import WorkloadFrontend

__all__ = ["WorkloadRegistry", "WORKLOADS", "register_workload", "run_spec"]


class WorkloadRegistry:
    """Name → frontend-class registry with catalog-style lazy loading.

    ``get`` returns a *fresh instance* per call: frontends may keep
    per-run state (a loaded trace, a built graph) without leaking it
    across runs.
    """

    def __init__(self, loader: Callable[[], None] = None):
        self._frontends: Dict[str, Type[WorkloadFrontend]] = {}
        self._loader = loader
        self._loaded = loader is None
        # Re-entrant: the catalog import calls register() on this very
        # registry, on the loading thread.
        self._load_lock = threading.RLock()

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        # Another thread waits for the whole catalog, not a partial one
        # (serve sessions' owner threads look names up concurrently).
        with self._load_lock:
            if not self._loaded:
                self._loader()
                self._loaded = True

    def register(
        self, frontend: Type[WorkloadFrontend], *, replace: bool = False
    ) -> Type[WorkloadFrontend]:
        """Register ``frontend`` under its ``name`` attribute.

        Usable as a decorator.  Duplicate names raise unless
        ``replace=True`` (tests swap implementations to prove cache
        keys cannot alias).
        """
        name = frontend.name
        if not name:
            raise WorkloadError(
                f"workload class {frontend.__name__} declares no name"
            )
        if name in self._frontends and not replace:
            raise WorkloadError(
                f"workload {name!r} is already registered "
                f"({self._frontends[name].__name__}); pass replace=True "
                f"to override"
            )
        self._frontends[name] = frontend
        return frontend

    def has(self, name: str) -> bool:
        self._ensure_loaded()
        return name in self._frontends

    def get(self, name: str) -> WorkloadFrontend:
        """A fresh instance of the frontend registered as ``name``."""
        self._ensure_loaded()
        try:
            cls = self._frontends[name]
        except KeyError:
            raise WorkloadError(
                f"no workload registered as {name!r} "
                f"(have: {', '.join(self.keys()) or '<none>'})"
            ) from None
        return cls()

    def keys(self, kind: str = None) -> List[str]:
        """Registered names (sorted), optionally filtered by ``kind``."""
        self._ensure_loaded()
        return sorted(
            name
            for name, cls in self._frontends.items()
            if kind is None or cls.kind == kind
        )

    def describe(self) -> List[Tuple[str, str, str]]:
        """``(name, kind, description)`` rows for every frontend."""
        self._ensure_loaded()
        return [
            (name, cls.kind, cls.description)
            for name, cls in sorted(self._frontends.items())
        ]

    def classes(self) -> Dict[str, Type[WorkloadFrontend]]:
        """Name → class mapping (the lint derives banned names here)."""
        self._ensure_loaded()
        return dict(self._frontends)

    def fingerprint(self, name: str) -> str:
        """A short stable digest identifying the frontend *implementation*.

        Folds the class identity (``module:qualname``) and its declared
        ``version`` — so re-pointing a registry name at a different
        class, or bumping a version, changes every dependent parallel
        cache key (the no-alias property).
        """
        self._ensure_loaded()
        try:
            cls = self._frontends[name]
        except KeyError:
            raise WorkloadError(f"no workload registered as {name!r}") from None
        ident = f"{cls.__module__}:{cls.__qualname__}@{cls.version}"
        return "w" + hashlib.sha256(ident.encode()).hexdigest()[:16]


def _load_catalog() -> None:
    import repro.workloads.catalog  # noqa: F401  registers the built-ins


#: The process-wide registry, populated by the catalog on first use.
WORKLOADS = WorkloadRegistry(_load_catalog)


def register_workload(
    frontend: Type[WorkloadFrontend], *, replace: bool = False
) -> Type[WorkloadFrontend]:
    """Register a frontend with the global registry (decorator-friendly)."""
    return WORKLOADS.register(frontend, replace=replace)


def run_spec(spec: Any) -> Any:
    """Execute a :class:`~repro.parallel.tasks.TaskSpec` a frontend's
    ``task_spec`` built — the sweep workers' entry point, resolved by
    dotted path so specs stay picklable."""
    return WORKLOADS.get(spec.kernel).run(
        spec.config,
        {"threads": spec.threads, **spec.param_dict()},
        fault_plan=spec.fault_plan,
    )
