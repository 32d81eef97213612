"""CMC footprints in converted workload traces come from the registration.

A plugin is the same op whether it is named by module or loaded from a
``.py`` path, so its fence in the oracle trace must be the same too.
"""

import pytest

import repro.cmc_ops.bloom as bloom
import repro.cmc_ops.listpush as listpush
from repro.oracle.differ import run_trace
from repro.oracle.workload_traces import trace_from_workload
from repro.workloads.tracefmt import TraceRecord, WorkloadTrace

#: The wide mutating fence an op with no declared FOOTPRINT gets.
WIDE_FENCE = 4096


def _push_trace(source):
    desc = 0x1000
    return WorkloadTrace(
        config_name="4link_4gb",
        cmc_modules=(source,),
        preloads=((desc, bytes(8) + (desc + 16).to_bytes(8, "little")),),
        requests=tuple(
            TraceRecord(cycle=i, tid=0, cmd="CMC39", addr=desc, data=bytes(16))
            for i in range(4)
        ),
    )


@pytest.mark.parametrize("source", ["repro.cmc_ops.listpush", listpush.__file__])
def test_listpush_gets_the_wide_fence_however_loaded(source):
    trace = trace_from_workload(_push_trace(source))
    assert {(r.footprint, r.mutates) for r in trace.requests} == {
        (WIDE_FENCE, True)
    }
    assert run_trace(trace).ok


def test_declared_footprint_is_used_from_a_path():
    wtrace = WorkloadTrace(
        config_name="4link_4gb",
        cmc_modules=(bloom.__file__,),
        preloads=((0x2000, bytes(64)),),
        requests=(
            TraceRecord(cycle=0, tid=0, cmd="CMC06", addr=0x2000, data=bytes(16)),
        ),
    )
    (req,) = trace_from_workload(wtrace).requests
    assert (req.footprint, req.mutates) == (bloom.FOOTPRINT, True)
