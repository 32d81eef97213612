"""Persistent on-disk result cache for parameter sweeps.

The one place a sweep result is encoded, decoded and judged:

* **persistent** — one small JSON file per simulation point, so a
  second process (or a warm CI job) reuses earlier work;
* **precisely keyed** — entries are addressed by the task-spec cache
  key (config fingerprint + component fingerprint + kernel version
  tag + thread count + kernel params, see
  :func:`repro.parallel.tasks.cache_key`), so component overrides or
  a kernel-semantics bump can never serve stale results;
* **one hit/miss rule** — :meth:`SweepCache.get` returns the decoded
  value (a stored ``null`` is a hit whose value is ``None``) or
  :data:`MISS`.  A missing or unreadable file, another schema, or a
  payload that will not decode (its class moved or renamed, its fields
  changed) is a miss, which the caller recomputes and overwrites;
* **accounted** — hit/miss/store counters are kept per instance in
  :attr:`SweepCache.stats`.

The cache root resolves, in order: an explicit ``root`` argument, the
``REPRO_CACHE_DIR`` environment variable, ``$XDG_CACHE_HOME`` or
``~/.cache`` under ``hmcsim-repro/sweepcache``.  ``--no-cache`` on the
CLI (or ``use_cache=False`` in the API) bypasses it entirely.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.fsutil import atomic_write_text
from repro.registry import decode_value, encode_value

__all__ = ["CacheStats", "MISS", "SweepCache", "default_cache_root"]

#: Bump to invalidate every existing cache entry (schema changes).
#: 2: payloads are :func:`repro.registry.encode_value` documents.
CACHE_SCHEMA = 2

#: What :meth:`SweepCache.get` returns when the cache cannot answer.
MISS: Any = object()


def default_cache_root() -> Path:
    """The cache directory used when none is given explicitly."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hmcsim-repro" / "sweepcache"


@dataclass
class CacheStats:
    """Hit/miss/store accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class SweepCache:
    """Directory of JSON result files, one per simulation point.

    Writes are atomic (temp file + ``os.replace``) so concurrent
    workers racing on the same key leave a whole file either way.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """The entry file backing ``key``."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Any:
        """The value stored under ``key``, or :data:`MISS`."""
        try:
            doc = json.loads(self.path_for(key).read_text())
            if doc["schema"] != CACHE_SCHEMA:
                raise ValueError(f"cache schema {doc['schema']!r}")
            value = decode_value(doc["payload"])
        # Whatever keeps the entry from yielding a value (I/O, JSON, a
        # class path that no longer resolves, changed fields) makes it
        # a miss: recomputing is always correct.
        except Exception:
            self.stats.misses += 1
            return MISS
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic replace)."""
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {"schema": CACHE_SCHEMA, "key": key, "payload": encode_value(value)}
        atomic_write_text(self.path_for(key), json.dumps(doc))
        self.stats.stores += 1
