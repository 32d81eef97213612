"""The fuzz farm: seed ranges fanned across the parallel sweep pool.

``hmcsim-repro fuzz --farm`` turns the differential fuzzer from a
serial loop into a self-growing corpus machine: every seed becomes one
:class:`~repro.parallel.tasks.TaskSpec` (:func:`farm_task_spec`) that
the caller hands to :class:`~repro.parallel.pool.SweepExecutor` — the
same deterministic fan-out and the same
:class:`~repro.parallel.cache.SweepCache` the paper sweeps use — so
per-seed results are

* **bit-identical to the serial path** (one execution function,
  ordering restored by index, pinned by the CI serial-vs-farm digest
  diff);
* **cached by fingerprint** — the spec's cache key folds the full
  config + component fingerprints with the farm parameters (seed,
  profile, count, config name, overrides), so a warm farm only re-runs
  seeds whose datapath actually changed;
* **summarized compactly** — a :class:`FarmSeedResult` carries the
  run facts plus a content digest instead of the whole trace, keeping
  cached entries small and JSON-safe.

Divergent seeds are shrunk and written into ``tests/oracle/repros/``
by the CLI layer, which is how the regression corpus grows itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.hmc.config import resolve_config
from repro.oracle.differ import DiffResult, run_trace
from repro.oracle.trafficgen import generate_trace
from repro.parallel.tasks import TaskSpec
from repro.registry import digest

__all__ = [
    "FARM_VERSION",
    "FarmSeedResult",
    "farm_task_spec",
    "run_farm_task",
    "format_seed_line",
]

#: Cycle-semantics tag of the farm's unit of work.  ``"fuzz"`` is not a
#: registered workload, so this literal is the version segment of every
#: farm cache key — bump it whenever the differ, the oracle, or the
#: traffic generator change semantics, or stale per-seed verdicts could
#: be served as current ones.
FARM_VERSION = "fuzz-farm-1"


@dataclass(frozen=True)
class FarmSeedResult:
    """One seed's verdict, compact and JSON-safe (cacheable).

    Everything needed to render the per-seed summary line and to pin
    farm determinism — but not the trace itself, which any consumer
    can regenerate from ``(seed, profile, count, config_name)``.
    """

    seed: int
    profile: str
    config_name: str
    requests: int
    responses: int
    cycles: int
    ok: bool
    skipped: Optional[str] = None
    timeouts: int = 0
    retransmits: int = 0
    duplicates_suppressed: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Rendered mismatch reports (empty on a clean seed).
    mismatches: List[str] = field(default_factory=list)
    #: Content digest over every field above — the unit the CI
    #: serial-vs-farm diff compares.
    digest: str = ""


def result_from_diff(result: DiffResult) -> FarmSeedResult:
    """Compress a differential result into its farm record."""
    doc = {
        "seed": result.trace.seed,
        "profile": result.trace.profile,
        "config_name": result.trace.config_name,
        "requests": len(result.trace.requests),
        "responses": result.responses,
        "cycles": result.cycles,
        "ok": result.ok,
        "skipped": result.skipped,
        "timeouts": result.timeouts,
        "retransmits": result.retransmits,
        "duplicates_suppressed": result.duplicates_suppressed,
        "fault_counts": dict(result.fault_counts),
        "mismatches": [m.describe() for m in result.mismatches],
    }
    return FarmSeedResult(digest=digest(doc), **doc)


def format_seed_line(r: FarmSeedResult) -> str:
    """The per-seed summary line — one formatter for the serial loop
    and the farm, so their outputs diff clean (CI pins this)."""
    status = "OK" if r.ok else f"{len(r.mismatches)} mismatch(es)"
    if r.skipped is not None:
        status = f"SKIPPED ({r.skipped})"
    line = (
        f"seed={r.seed} profile={r.profile} requests={r.requests} "
        f"responses={r.responses} cycles={r.cycles}: {status}"
    )
    if r.fault_counts:
        counts = " ".join(f"{k}={v}" for k, v in sorted(r.fault_counts.items()))
        line += (
            f" [faults: {counts}; watchdog: {r.timeouts} timeouts, "
            f"{r.retransmits} retransmits, "
            f"{r.duplicates_suppressed} dups suppressed]"
        )
    return line + f" digest={r.digest}"


def farm_task_spec(
    seed: int,
    *,
    profile: str,
    count: int = 256,
    config_name: str = "4link_4gb",
    overrides: Optional[Dict[str, Any]] = None,
) -> TaskSpec:
    """One picklable farm point.

    The spec's ``config`` carries the *overridden* configuration (so
    the config/component fingerprints key the actual datapath under
    test), while ``params`` keeps the raw override pairs the worker
    needs to rebuild ``run_trace``'s arguments.
    """
    config = resolve_config(config_name, overrides)
    pairs = tuple(sorted((overrides or {}).items()))
    return TaskSpec(
        kernel="fuzz",
        kernel_version=FARM_VERSION,
        runner="repro.oracle.farm:run_farm_task",
        config=config,
        threads=0,
        params=(
            ("config_name", config_name),
            ("count", count),
            ("overrides", pairs),
            ("profile", profile),
            ("seed", seed),
        ),
    )


def run_farm_task(spec: TaskSpec) -> FarmSeedResult:
    """Worker entry: regenerate the seed's trace, diff it, compress."""
    p = spec.param_dict()
    trace = generate_trace(
        p["seed"],
        profile=p["profile"],
        count=p["count"],
        config_name=p["config_name"],
    )
    # Override pairs survive a JSON cache round-trip as nested lists.
    overrides = {k: v for k, v in (p.get("overrides") or ())}
    return result_from_diff(
        run_trace(trace, config_overrides=overrides or None)
    )

