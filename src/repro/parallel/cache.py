"""Persistent on-disk result cache for parameter sweeps.

Replaces the retired module-level ``_CACHE`` dict in
``repro.analysis.sweep``, which was unbounded, process-local, and
keyed coarsely enough that distinct pipelines could alias.  This cache
is

* **persistent** — one small JSON file per simulation point, so a
  second process (or a warm CI job) reuses earlier work;
* **precisely keyed** — entries are addressed by the task-spec cache
  key (config fingerprint + component fingerprint + kernel version
  tag + thread count + kernel params, see
  :func:`repro.parallel.tasks.cache_key`), so component overrides or
  a kernel-semantics bump can never serve stale results;
* **accounted** — hit/miss/store counters are kept per instance and
  reported by :meth:`SweepCache.stats`.

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

__all__ = ["CacheStats", "SweepCache", "default_cache_root"]

#: Bump to invalidate every existing cache entry (schema changes).
#: 2: payloads are :func:`repro.registry.encode_value` documents.
CACHE_SCHEMA = 2


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

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = self.stores = 0


class SweepCache:
    """Directory of JSON result files, one per simulation point.

    Writes are atomic (temp file + ``os.replace``) so concurrent
    workers racing on the same key leave a whole file either way;
    unreadable or corrupt entries are treated as misses and
    overwritten on the next store.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """The entry file backing ``key``."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Any:
        """The stored payload for ``key``, or None on a miss."""
        path = self.path_for(key)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if doc.get("schema") != CACHE_SCHEMA or "payload" not in doc:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return doc["payload"]

    def put(self, key: str, payload: Any) -> None:
        """Store ``payload`` under ``key`` (atomic replace)."""
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {"schema": CACHE_SCHEMA, "key": key, "payload": payload}
        atomic_write_text(self.path_for(key), json.dumps(doc))
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
