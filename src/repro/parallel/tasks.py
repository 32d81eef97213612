"""Picklable task specs for the parallel experiment engine.

A sweep is a list of fully independent simulation points.  Each point
is described by a :class:`TaskSpec` — a frozen, picklable value object
carrying everything a worker process needs to reproduce the point from
scratch: the validated :class:`~repro.hmc.config.HMCConfig` (which
includes the component selections for every pipeline seam), the thread
count, any extra kernel parameters, and the dotted path of the runner
function that executes it.

The spec also defines the *cache identity* of the point.  The
persistent result cache (:mod:`repro.parallel.cache`) keys an entry by
:func:`cache_key`, which folds together

* the **config fingerprint** — every field of the configuration, so
  two configs that differ in any knob (including component overrides)
  can never alias;
* the **component fingerprint** — the ``module:qualname`` of the
  factory registered for each selected seam implementation, so
  swapping the code behind a registry key invalidates old entries;
* the **workload fingerprint** — resolved through the workload
  registry when the spec's kernel name is registered there (the class
  identity plus its declared ``version``, see
  :meth:`repro.registry.Registry.fingerprint`), so
  re-pointing a registry name at different code — or bumping a
  workload's version — invalidates old entries; unregistered kernels
  fall back to the spec's literal ``kernel_version`` tag;
* the **fault-plan fingerprint** — present only when the spec carries a
  :class:`~repro.faults.plan.FaultPlan` (it folds each kind's registered
  implementation, like the two above), so a faulty point can never
  alias a fault-free one (and fault-free keys are unchanged from before
  fault injection existed);
* the thread count and sorted kernel parameters.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.hmc.components import COMPONENTS
from repro.hmc.config import HMCConfig
from repro.registry import resolve

__all__ = [
    "TaskSpec",
    "config_fingerprint",
    "component_fingerprint",
    "cache_key",
    "run_task",
    "encode_result",
    "decode_result",
]


@dataclass(frozen=True)
class TaskSpec:
    """One independent simulation point of a parameter sweep.

    Attributes:
        kernel: short kernel name (``"mutex"``), used in cache keys and
            progress lines.
        kernel_version: the kernel's cycle-semantics tag; a bump
            invalidates every cached result of that kernel.
        runner: ``"module.path:callable"`` of the function that takes
            this spec and returns the point's result.  Resolved by
            import in the executing process, so specs stay picklable
            under any multiprocessing start method.
        config: device configuration for the point.
        threads: thread count (the sweep axis of Figures 5-7).
        params: extra kernel parameters as a sorted tuple of
            ``(name, value)`` pairs; values must be JSON-representable.
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan` the
            runner attaches to the simulation.  Part of the cache key
            (the plan fingerprint plus seed) whenever set, so faulty
            results can never be served for fault-free requests or for
            a different plan/seed.
    """

    kernel: str
    kernel_version: str
    runner: str
    config: HMCConfig
    threads: int
    params: Tuple[Tuple[str, Any], ...] = ()
    fault_plan: Optional[FaultPlan] = None

    def param_dict(self) -> Dict[str, Any]:
        """The extra kernel parameters as a dict."""
        return dict(self.params)


def config_fingerprint(config: HMCConfig) -> str:
    """Hex digest over *every* configuration field.

    Unlike the retired in-process sweep cache (keyed on the config's
    ``repr``), the fingerprint is explicit about its inputs: the full
    validated field set, serialized canonically.  Two configurations
    differing in any knob — queue depths, rates, interleave, component
    selections — get distinct fingerprints.
    """
    doc = {f.name: getattr(config, f.name) for f in fields(config)}
    return _digest(doc)


def component_fingerprint(config: HMCConfig) -> str:
    """Hex digest over the *implementations* behind the selected seams.

    The config names each seam's implementation by registry key; this
    fingerprint resolves every key to the registered factory's
    ``module:qualname`` so that re-pointing a key at different code
    invalidates cached results built with the old pipeline.
    """
    doc = {
        seam: COMPONENTS[seam].identity(key)
        for seam, key in config.component_selection().items()
    }
    return _digest(doc)


def cache_key(spec: TaskSpec) -> str:
    """Stable, filesystem-safe cache key for one task spec.

    Fault-free specs keep the historical five-segment key shape; a
    spec carrying a fault plan appends a ``f<fingerprint>`` segment
    covering the plan's kinds, resolved parameters, and seed.

    The version segment resolves through the workload registry when
    the kernel name is registered there, so the cache key tracks the
    *implementation* behind the name (no-alias: swapping the class or
    bumping its ``version`` changes the key).  Unregistered kernel
    names use the spec's literal ``kernel_version``.
    """
    from repro.workloads.registry import WORKLOADS

    version = (
        WORKLOADS.fingerprint(spec.kernel)
        if WORKLOADS.has(spec.kernel)
        else spec.kernel_version
    )
    segments = [
        spec.kernel,
        version,
        config_fingerprint(spec.config),
        component_fingerprint(spec.config),
        f"t{spec.threads}",
        _digest({k: v for k, v in spec.params}),
    ]
    if spec.fault_plan is not None:
        segments.append(f"f{spec.fault_plan.fingerprint()}")
    return "-".join(segments)


def _digest(doc: Dict[str, Any]) -> str:
    blob = json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def run_task(spec: TaskSpec) -> Any:
    """Execute one task spec in the current process.

    This is the *single* execution path: the ``jobs=1`` in-process
    fallback and every pool worker call exactly this function, so
    serial/parallel parity is structural rather than tested-only.
    """
    return resolve(spec.runner)(spec)


# -- result (de)serialization -------------------------------------------------
#
# Cached results are stored as JSON.  A result dataclass round-trips
# through its field dict plus the dotted path of its class, resolved by
# import on decode — the cache layer stays ignorant of kernel-specific
# result types.


def encode_result(result: Any) -> Dict[str, Any]:
    """Encode a result dataclass as a JSON-safe dict."""
    return {
        "__dataclass__": f"{result.__class__.__module__}:{result.__class__.__qualname__}",
        "fields": asdict(result),
    }


def decode_result(doc: Dict[str, Any]) -> Any:
    """Reconstruct a result encoded by :func:`encode_result`."""
    return resolve(doc["__dataclass__"])(**doc["fields"])
