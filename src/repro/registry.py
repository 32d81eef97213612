"""One way to turn a name into a thing.

A string from the CLI, the serve socket or a trace header becomes a
component (:data:`repro.hmc.components.COMPONENTS`, one registry per
seam), a fault kind (:data:`repro.faults.registry.FAULTS`) or a workload
(:data:`repro.workloads.registry.WORKLOADS`) through a :class:`Registry`,
under one set of rules: an occupied key is refused unless ``replace``;
an unknown key's error lists the known keys; the built-ins register
from a *catalog* of module paths imported on first lookup, under a
re-entrant lock; and an entry's fingerprint is its implementation's
``module:qualname``, plus ``@version`` when it declares one.  An entry
is the implementation itself (a class or factory), or a record naming
it as ``factory`` (a fault kind).
"""

from __future__ import annotations

import hashlib
import importlib
import threading
from typing import Any, Dict, Generic, Tuple, Type, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """String keys to registered entries, with a lazily imported catalog.

    Args:
        noun: what one entry is, for messages (``"workload"``).
        error: the exception class every refusal raises.
        catalog: module paths whose import registers the built-ins.
        fresh: ``get`` returns a new instance of the registered class
            instead of the class (per-run state never leaks).
        tag: prefix of :meth:`fingerprint` digests.
        columns: entry attributes :meth:`describe` lists after the key.
    """

    def __init__(
        self,
        noun: str,
        error: Type[Exception],
        *,
        catalog: Tuple[str, ...] = (),
        fresh: bool = False,
        tag: str = "",
        columns: Tuple[str, ...] = (),
    ) -> None:
        self.noun = noun
        self.error = error
        self._catalog = catalog
        self._fresh = fresh
        self._tag = tag
        self._columns = columns
        self._entries: Dict[str, T] = {}
        self._loaded = not catalog
        self._loading = False
        # Re-entrant: a catalog module may look a name up while it loads.
        self._lock = threading.RLock()

    def _load(self) -> None:
        if self._loaded:
            return
        # Another thread waits for the whole catalog, not a partial one
        # (serve sessions' owner threads look names up concurrently).
        with self._lock:
            if self._loaded or self._loading:
                return
            self._loading = True
            try:
                for module in self._catalog:
                    importlib.import_module(module)
            finally:
                self._loading = False
            self._loaded = True

    def register(self, key: str, entry: T, *, replace: bool = False) -> T:
        """Install ``entry`` under ``key`` and return it.

        A replacement loads the catalog first, so ``replace=True`` over
        a built-in holds; a plain registration takes no lock, so a
        catalog module registering as it is imported never waits on a
        thread that is loading the catalog.  Raises the registry's error
        for an empty key or an occupied one (unless ``replace``).
        """
        if not key or not isinstance(key, str):
            raise self.error(
                f"{self.noun} key must be a non-empty string, got {key!r}"
            )
        if replace:
            self._load()
        if key in self._entries and not replace:
            raise self.error(
                f"{self.noun} {key!r} is already registered "
                f"(pass replace=True to override)"
            )
        self._entries[key] = entry
        return entry

    def _entry(self, key: str) -> T:
        """The entry under ``key``; the error lists the known keys."""
        self._load()
        if isinstance(key, str) and key in self._entries:
            return self._entries[key]
        known = ", ".join(sorted(self._entries)) or "<none>"
        raise self.error(
            f"no {self.noun} registered under {key!r} (known keys: {known})"
        )

    def get(self, key: str) -> Any:
        """The entry under ``key`` (a fresh instance for ``fresh``)."""
        found = self._entry(key)
        return found() if self._fresh else found

    def has(self, key: str) -> bool:
        """True when ``key`` is registered."""
        self._load()
        return key in self._entries

    def keys(self, **where: Any) -> Tuple[str, ...]:
        """Registered keys, sorted; ``where`` keeps entries whose
        attributes equal the given values (``keys(kind="graph")``)."""
        self._load()
        return tuple(
            key
            for key, entry in sorted(self._entries.items())
            if all(getattr(entry, k, None) == v for k, v in where.items())
        )

    def classes(self) -> Dict[str, Any]:
        """Key -> the implementation each entry names."""
        self._load()
        return {key: _impl(entry) for key, entry in self._entries.items()}

    def describe(self) -> Tuple[Tuple[Any, ...], ...]:
        """``(key, *columns)`` rows for every entry, sorted by key."""
        self._load()
        return tuple(
            (key, *(getattr(entry, c) for c in self._columns))
            for key, entry in sorted(self._entries.items())
        )

    def identity(self, key: str) -> str:
        """``module:qualname`` of the implementation under ``key``, plus
        ``@version`` when it declares one."""
        impl = _impl(self._entry(key))
        name = getattr(impl, "__qualname__", type(impl).__name__)
        version = getattr(impl, "version", None)
        suffix = "" if version is None else f"@{version}"
        return f"{impl.__module__}:{name}{suffix}"

    def fingerprint(self, key: str) -> str:
        """A short digest of :meth:`identity`: it changes when the name
        is re-pointed at other code or the code bumps its version."""
        digest = hashlib.sha256(self.identity(key).encode()).hexdigest()
        return self._tag + digest[:16]


def _impl(entry: Any) -> Any:
    return getattr(entry, "factory", entry)
