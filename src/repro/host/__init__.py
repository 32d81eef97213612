"""Host-side simulation: simulated threads driving HMC devices.

The paper's evaluation executes a parallel algorithm against the
simulated device by modelling "units of parallelism" (threads) that
dispatch memory requests, retry on stalls, and spin on lock responses.
This subpackage provides:

* :mod:`repro.host.thread` — one simulated thread: a generator-based
  program plus its request-issue state machine;
* :mod:`repro.host.engine` — the cycle-driven engine that multiplexes
  every thread onto the device links, routes responses back by tag,
  and collects the MIN/MAX/AVG cycle statistics of §V.B;
* :mod:`repro.host.kernels` — the nine kernels, one module each with
  its thread programs, data generators, stats and workload frontend:
  the paper's Algorithm 1 mutex kernel, and the STREAM Triad /
  RandomAccess / BFS-with-CAS / histogram kernels from the surrounding
  literature (run by name through :mod:`repro.workloads`).
"""

from repro.registry import lazy_exports

#: Imported on first access (``repro.registry.lazy_exports``).
_EXPORTS = {
    "HostEngine": "repro.host.engine:HostEngine",
    "EngineResult": "repro.host.engine:EngineResult",
    "ThreadResult": "repro.host.engine:ThreadResult",
    "SimThread": "repro.host.thread:SimThread",
    "ThreadCtx": "repro.host.thread:ThreadCtx",
    "ThreadState": "repro.host.thread:ThreadState",
    "OpenLoopStats": "repro.host.openloop:OpenLoopStats",
    "run_open_loop": "repro.host.openloop:run_open_loop",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
