"""Sample summaries and digests shared by the runner and compare.py."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from typing import Any, Dict, List, Sequence

__all__ = ["digest", "percentile", "summary"]


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value: Any) -> str:
    """Short stable digest of an op's simulated statistics or output."""
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True, default=_plain).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of one metric's samples."""
    xs: List[float] = list(values)
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    else:
        q1 = q3 = xs[0]
    return {
        "median": statistics.median(xs),
        "q1": q1,
        "q3": q3,
        "min": min(xs),
        "max": max(xs),
        "n": len(xs),
    }
