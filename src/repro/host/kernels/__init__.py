"""Workload kernels.

These modules hold each kernel's thread programs, data generators
(update streams, chains, graphs, host-side references), and stats
dataclass — nothing here builds a simulation context or an engine.
A kernel is *run* by name through the workload registry
(:data:`repro.workloads.registry.WORKLOADS` — see
:mod:`repro.workloads`), whose frontends state the parameter set,
device preparation, thread fan-out, and verification of each kernel
exactly once.

* :mod:`repro.host.kernels.mutex_kernel` — the paper's Algorithm 1
  (the §V evaluation workload).
* :mod:`repro.host.kernels.stream` — STREAM Triad (stride-1, from the
  HMC-Sim 1.0 evaluation the paper's §II recounts).
* :mod:`repro.host.kernels.gups` — HPCC RandomAccess / GUPS (random
  access, same provenance), with an atomic-XOR16 variant.
* :mod:`repro.host.kernels.bfs` — breadth-first search with HMC CAS
  offload versus a host-side read-modify-write baseline (the
  related-work [10] case study).
* :mod:`repro.host.kernels.histogram` — atomic INC8 histogram versus
  a cache-line read-modify-write baseline (the Table II comparison as
  a live workload).
* :mod:`repro.host.kernels.ticket_kernel` — the FIFO ticket-lock
  contention workload (fairness counterpart to Algorithm 1).
* :mod:`repro.host.kernels.pointer_chase` — dependent-load latency
  measurement, with row-buffer effects under the timing extension.
* :mod:`repro.host.kernels.barrier` — a sense-reversing barrier
  composed from CMC operations.
* :mod:`repro.host.kernels.sssp` — single-source shortest paths with
  CAS-offloaded relaxations versus a host-side baseline.
"""

from repro.host.kernels.mutex_kernel import MutexRunStats, mutex_program

__all__ = ["mutex_program", "MutexRunStats"]
