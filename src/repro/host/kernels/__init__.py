"""Workload kernels, one module each.

Each module is the one statement of its kernel: the thread programs,
the data generators (update streams, chains, graphs, host-side
references), the stats dataclass, and the workload frontend behind the
:class:`~repro.workloads.base.WorkloadFrontend` seam — the parameter
set and its valid ranges, the initial device state (``prepare``), the
thread fan-out (``build``), the check of the answer (``verify``) and
the stats built from the engine result (``stats``).  A kernel is *run*
by name through the workload registry
(:data:`repro.workloads.registry.WORKLOADS`), whose catalog lists these
modules in order and stops at the key, so resolving one name imports
one kernel.  Each frontend registers itself; no other module may import
one (workload-containment lint) — resolve it by name.

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
  atomic-min (CMC07) relaxations versus a host-side baseline.

:mod:`repro.host.kernels.base` holds what the frontends share: the
parameter domains, :class:`~repro.host.kernels.base.KernelWorkload`
and the multi-phase :class:`~repro.host.kernels.base.WaveWorkload`
(BFS, SSSP).
"""
