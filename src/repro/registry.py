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

A lookup imports the catalog in order only until its key is registered;
listing the keys, a miss and a replacement import all of it.  The same
import-on-demand rule serves package re-exports: :func:`resolve` turns a
``module:qualname`` path into the object, and :func:`lazy_exports` gives
a package a module ``__getattr__`` over a table of such paths.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import threading
from typing import Any, Callable, Dict, Generic, List, Mapping, Tuple, Type, TypeVar

__all__ = ["Registry", "resolve", "lazy_exports"]

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
        self._fresh = fresh
        self._tag = tag
        self._columns = columns
        self._entries: Dict[str, T] = {}
        #: Catalog modules not imported yet, in catalog order.
        self._pending = list(catalog)
        self._loading = False
        # Re-entrant: a catalog module may look a name up while it loads.
        self._lock = threading.RLock()

    def _load(self, key: Any = None) -> None:
        """Import the catalog in order until ``key`` is registered; all
        of it when ``key`` is None or nothing registers it."""
        if not self._pending or _found(key, self._entries):
            return
        # Another thread waits for the module it needs, not a partial
        # one (serve sessions' owner threads look names up concurrently).
        with self._lock:
            if self._loading:
                return
            self._loading = True
            try:
                while self._pending and not _found(key, self._entries):
                    importlib.import_module(self._pending[0])
                    del self._pending[0]
            finally:
                self._loading = False

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
        self._load(key)
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
        self._load(key)
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
        ``@version`` when it declares one.  An implementation moved after
        its fingerprint was published names its old module in its own
        (not inherited) ``published_module``, so the move changes no
        served payload or cache key."""
        impl = _impl(self._entry(key))
        name = getattr(impl, "__qualname__", type(impl).__name__)
        module = getattr(impl, "__dict__", {}).get("published_module", impl.__module__)
        version = getattr(impl, "version", None)
        suffix = "" if version is None else f"@{version}"
        return f"{module}:{name}{suffix}"

    def fingerprint(self, key: str) -> str:
        """A short digest of :meth:`identity`: it changes when the name
        is re-pointed at other code or the code bumps its version."""
        digest = hashlib.sha256(self.identity(key).encode()).hexdigest()
        return self._tag + digest[:16]


def _impl(entry: Any) -> Any:
    return getattr(entry, "factory", entry)


def _found(key: Any, entries: Dict[str, Any]) -> bool:
    return isinstance(key, str) and key in entries


def resolve(path: str) -> Any:
    """The object a ``module:qualname`` path names, importing the module."""
    module, sep, qualname = path.partition(":")
    if not sep:
        raise ValueError(f"bad path {path!r} (expected 'module:qualname')")
    found: Any = importlib.import_module(module)
    for part in qualname.split("."):
        found = getattr(found, part)
    return found


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """A package's module ``__getattr__`` and ``__dir__`` (PEP 562) over
    ``name -> "module:qualname"``: a name is imported on first access,
    so importing the package imports none of them."""

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = resolve(exports[name])
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
