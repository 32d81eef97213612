"""Device-wide fault injection and host-side resilience.

The robustness subsystem of the reproduction: deterministic, seeded
fault injection across the simulated datapath (DRAM ECC bit flips,
transient vault stalls, dropped/duplicated responses at the crossbar,
CMC-plugin crashes, link CRC corruption) plus the host-side machinery
for surviving and diagnosing it (per-tag watchdog, cycle-wise
invariant checking; the deadlock dumps live with the simulation
context, :mod:`repro.hmc.sim`).

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
* :mod:`~repro.faults.watchdog` / :mod:`~repro.faults.invariants` —
  the resilience layer used by :class:`repro.host.engine.HostEngine`.

With no plan attached, the simulated datapath is bit-identical to the
fault-free baseline — the paper's "No Simulation Perturbation"
requirement, extended to fault injection and pinned by the
engine-parity goldens.
"""

from repro.registry import lazy_exports

#: Imported on first access (``repro.registry.lazy_exports``).
_EXPORTS = {
    "FAULTS": "repro.faults.registry:FAULTS",
    "FaultKind": "repro.faults.registry:FaultKind",
    "register_fault": "repro.faults.registry:register_fault",
    "FaultSpec": "repro.faults.plan:FaultSpec",
    "FaultPlan": "repro.faults.plan:FaultPlan",
    "DEFAULT_FAULT_SEED": "repro.faults.plan:DEFAULT_FAULT_SEED",
    "FaultController": "repro.faults.controller:FaultController",
    "FATE_DELIVER": "repro.faults.controller:FATE_DELIVER",
    "FATE_DROP": "repro.faults.controller:FATE_DROP",
    "FATE_DUP": "repro.faults.controller:FATE_DUP",
    "TagWatchdog": "repro.faults.watchdog:TagWatchdog",
    "ArmedTag": "repro.faults.watchdog:ArmedTag",
    "InvariantChecker": "repro.faults.invariants:InvariantChecker",
    "DeadlockDump": "repro.hmc.sim:DeadlockDump",
    "collect_deadlock_dump": "repro.hmc.sim:collect_deadlock_dump",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
