"""Workload traces as a differential-fuzz profile.

:func:`trace_from_workload` converts a recorded (or hand-written)
:class:`~repro.workloads.tracefmt.WorkloadTrace` into the oracle's
:class:`~repro.oracle.trafficgen.Trace`, so a captured engine run can
be replayed through the differential runner: the *same* request stream
that drove the real datapath, re-executed against the functional
oracle.  ``hmcsim-repro fuzz --profile trace --trace run.jsonl`` wires
it up.

Footprints are assigned conservatively from the command table and each
CMC plugin's declared ``FOOTPRINT``: a wider footprint only adds
pre-send fences, which serializes more than the
recording did but never unsoundly — the differ's correctness argument
needs overlap-with-a-writer pairs fenced, not minimal regions.

Initial state comes from the workload registry when the trace names a
registered workload: ``prepare`` runs on a scratch simulator and the
declared ``footprint`` regions are snapshotted into oracle preloads
(and doubled as the final memory check ranges).  External traces carry
explicit preload lines instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.cmc import CMCRegistry
from repro.core.loader import load_cmc as _load_cmc_plugin
from repro.errors import WorkloadError
from repro.hmc.commands import CommandKind, command_for_code, hmc_rqst_t
from repro.hmc.config import CONFIGS
from repro.hmc.packet import MAX_TAG
from repro.oracle.trafficgen import Trace, TraceRequest
from repro.workloads.tracefmt import WorkloadTrace

__all__ = ["trace_from_workload"]

#: Fence for a CMC op with no declared footprint: its writes land at an
#: address read from memory, and without the generator's cluster
#: discipline the only sound choice is a wide mutating fence.
_WIDE_CMC_FENCE = 4096


def _cmc_footprints(cmc_modules: Tuple[str, ...]) -> Dict[int, Optional[int]]:
    """Command code → declared footprint, via an offline registry."""
    registry = CMCRegistry()
    for module in cmc_modules:
        registry.register(_load_cmc_plugin(module))
    return {op.cmd: op.registration.footprint for op in registry.operations()}


def _classify(
    cmd: int, data: bytes, footprints: Dict[int, Optional[int]]
) -> Tuple[int, bool]:
    """Conservative ``(footprint, mutates)`` for one request."""
    info = command_for_code(cmd)
    kind = info.kind
    if kind is CommandKind.READ:
        return info.rsp_data_bytes or 16, False
    if kind in (CommandKind.WRITE, CommandKind.POSTED_WRITE):
        return len(data) or info.rqst_data_bytes or 16, True
    if kind in (CommandKind.ATOMIC, CommandKind.POSTED_ATOMIC):
        return 16, True
    if kind is CommandKind.MODE:
        return 8, cmd == int(hmc_rqst_t.MD_WR)
    if kind is CommandKind.CMC:
        return footprints.get(cmd) or _WIDE_CMC_FENCE, True
    return 0, False  # flow traffic touches no state


def _registry_preloads(
    wtrace: WorkloadTrace,
) -> Tuple[Tuple[Tuple[int, bytes], ...], Tuple[Tuple[int, int], ...]]:
    """Preloads + check ranges reconstructed via the workload registry.

    Runs the named frontend's ``prepare`` on a scratch simulator and
    snapshots its declared footprint regions.
    """
    from repro.hmc.sim import HMCSim
    from repro.workloads.registry import WORKLOADS

    config = CONFIGS[wtrace.config_name]()
    frontend = WORKLOADS.get(wtrace.workload)
    params = frontend.resolve_params(wtrace.params)
    regions = frontend.footprint(config, params)
    if not regions:
        raise WorkloadError(
            f"workload {wtrace.workload!r} declares no footprint; cannot "
            f"reconstruct oracle preloads from the trace header"
        )
    sim = HMCSim(config)
    frontend.prepare(sim, params)
    preloads = tuple(
        (base, sim.mem_read(base, nbytes)) for base, nbytes in regions
    )
    return preloads, tuple(regions)


def trace_from_workload(
    wtrace: WorkloadTrace, *, seed: int = 0
) -> Trace:
    """An oracle fuzz trace replaying ``wtrace``'s request stream.

    Tags are reassigned round-robin (recorded tags are per-thread and
    the differ matches responses by ``(cub, tag)`` globally); links
    follow the recorded thread map when present.
    """
    if not wtrace.requests:
        raise WorkloadError("workload trace has no requests to convert")
    if wtrace.config_name not in CONFIGS:
        raise WorkloadError(
            f"workload trace targets unknown config "
            f"{wtrace.config_name!r} (oracle knows: "
            f"{', '.join(sorted(CONFIGS))})"
        )
    config = CONFIGS[wtrace.config_name]()
    footprints = _cmc_footprints(wtrace.cmc_modules)
    if wtrace.workload:
        preloads, check_ranges = _registry_preloads(wtrace)
    else:
        preloads = tuple(wtrace.preloads)
        check_ranges = tuple(
            (addr, len(data)) for addr, data in wtrace.preloads
        )
    links = {t.tid: t.link for t in wtrace.threads}
    num_links = config.num_links
    requests: List[TraceRequest] = []
    for i, rec in enumerate(wtrace.requests):
        cmd = int(rec.rqst())
        footprint, mutates = _classify(cmd, rec.data, footprints)
        requests.append(
            TraceRequest(
                cmd=cmd,
                addr=rec.addr,
                tag=i % (MAX_TAG + 1),
                link=links.get(rec.tid, rec.tid % num_links),
                data=rec.data,
                footprint=footprint,
                mutates=mutates,
            )
        )
    return Trace(
        seed=seed,
        profile="trace",
        config_name=wtrace.config_name,
        cmc_modules=tuple(wtrace.cmc_modules),
        fault_specs=(),
        fault_seed=0,
        preloads=preloads,
        check_ranges=check_ranges,
        requests=tuple(requests),
    )
