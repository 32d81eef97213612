"""The nine hand-written host kernels as native workload frontends.

One module per frontend, each the one statement of its kernel behind
the :class:`~repro.workloads.base.WorkloadFrontend` seam: the parameter
set and its valid ranges, the initial device state (``prepare``), the
thread fan-out (``build``), and the stats built from the engine result
(``stats``).  Each module imports only its own kernel's programs, data
generators and ``*Stats`` dataclass from :mod:`repro.host.kernels`, so
resolving one name imports one frontend (the workload registry's
catalog lists them in order and stops at the key).

:mod:`repro.workloads.kernels.base` holds what the frontends share: the
parameter domains, :class:`~repro.workloads.kernels.base.KernelWorkload`
and the multi-phase :class:`~repro.workloads.kernels.base.WaveWorkload`
(BFS, SSSP).  Each concrete frontend registers itself; no other module
may import one (workload-containment lint) — resolve it by name.
"""
