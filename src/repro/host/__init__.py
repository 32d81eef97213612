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
* :mod:`repro.host.kernels` — the workloads' thread programs, data
  generators and stats: the paper's Algorithm 1 mutex kernel, and the
  STREAM Triad / RandomAccess / BFS-with-CAS / histogram kernels from
  the surrounding literature (run by name through
  :mod:`repro.workloads`).
"""

from repro.host.engine import EngineResult, HostEngine, ThreadResult
from repro.host.openloop import OpenLoopStats, run_open_loop
from repro.host.thread import SimThread, ThreadCtx, ThreadState
from repro.host.window import WindowedEngine, WindowedResult

__all__ = [
    "HostEngine",
    "EngineResult",
    "ThreadResult",
    "SimThread",
    "ThreadCtx",
    "ThreadState",
    "WindowedEngine",
    "WindowedResult",
    "OpenLoopStats",
    "run_open_loop",
]
