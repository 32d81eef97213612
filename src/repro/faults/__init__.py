"""Device-wide fault injection and host-side resilience.

The robustness subsystem of the reproduction: deterministic, seeded
fault injection across the simulated datapath (DRAM ECC bit flips,
transient vault stalls, dropped/duplicated responses at the crossbar,
CMC-plugin crashes, link CRC corruption) plus the host-side machinery
for surviving and diagnosing it (per-tag watchdog, cycle-wise
invariant checking, deadlock dumps).

Structure mirrors the component architecture:

* :mod:`~repro.faults.registry` — the string-keyed
  :data:`~repro.faults.registry.FAULTS` registry of fault *kinds* (a
  :class:`repro.registry.Registry`, as are the component seams and the
  workloads);
* :mod:`~repro.faults.plan` — :class:`~repro.faults.plan.FaultPlan`,
  the frozen, picklable, fingerprinted description of what to break;
* :mod:`~repro.faults.injectors` — the built-in kinds (the registry's
  catalog, imported on first lookup);
* :mod:`~repro.faults.controller` — the per-simulation object a built
  plan becomes (``sim.faults``);
* :mod:`~repro.faults.watchdog` / :mod:`~repro.faults.invariants` /
  :mod:`~repro.faults.diagnostics` — the resilience layer used by
  :class:`repro.host.engine.HostEngine`.

With no plan attached, the simulated datapath is bit-identical to the
fault-free baseline — the paper's "No Simulation Perturbation"
requirement, extended to fault injection and pinned by the
engine-parity goldens.
"""

from repro.faults.controller import (
    FATE_DELIVER,
    FATE_DROP,
    FATE_DUP,
    FaultController,
)
from repro.faults.diagnostics import DeadlockDump, collect_deadlock_dump
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import DEFAULT_FAULT_SEED, FaultPlan, FaultSpec
from repro.faults.registry import FAULTS, FaultKind, register_fault
from repro.faults.watchdog import ArmedTag, TagWatchdog

__all__ = [
    "FAULTS",
    "FaultKind",
    "register_fault",
    "FaultSpec",
    "FaultPlan",
    "DEFAULT_FAULT_SEED",
    "FaultController",
    "FATE_DELIVER",
    "FATE_DROP",
    "FATE_DUP",
    "TagWatchdog",
    "ArmedTag",
    "InvariantChecker",
    "DeadlockDump",
    "collect_deadlock_dump",
]
