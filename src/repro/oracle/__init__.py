"""Differential-testing oracle for the HMC datapath.

This package holds a *functional reference model* of the complete Gen2
command set plus registered CMC operations (:mod:`repro.oracle.model`),
a seeded random traffic generator (:mod:`repro.oracle.trafficgen`), a
differential runner that executes the same trace through the real cycle
engine and the oracle and diffs the results
(:mod:`repro.oracle.differ`), a delta-debugging shrinker that
reduces a failing trace to a minimal reproducer
(:mod:`repro.oracle.shrink`), the fuzz farm's per-seed task specs, which
the sweep pool fans out with fingerprint-cached per-seed verdicts
(:mod:`repro.oracle.farm`), and a one-call conformance check for a CMC
plugin (:func:`check_cmc_op`, :mod:`repro.oracle.conformance`).

The oracle is deliberately *not* built from the cycle engine: it may
import packet/command/register/AMO definitions (shared, spec-pinned
data), but never the device, vault, crossbar, or link modules — so a
bug in the pipeline cannot leak into the model that checks it.  The
``scripts/lint_no_function_imports.py`` oracle-purity check enforces
this at lint time.

See ``docs/CORRECTNESS.md`` for the ordering contract and workflow.
"""

from repro.oracle.conformance import CMCOpCheck, check_cmc_op
from repro.oracle.differ import DiffResult, Mismatch, run_trace
from repro.oracle.farm import (
    FarmSeedResult,
    farm_task_spec,
    format_seed_line,
    result_from_diff,
    run_farm_task,
)
from repro.oracle.model import Expectation, Oracle
from repro.oracle.shrink import emit_repro, load_repro, shrink_trace
from repro.oracle.trafficgen import PROFILES, Trace, TraceRequest, generate_trace

__all__ = [
    "Oracle",
    "Expectation",
    "Trace",
    "TraceRequest",
    "PROFILES",
    "generate_trace",
    "run_trace",
    "DiffResult",
    "Mismatch",
    "shrink_trace",
    "emit_repro",
    "load_repro",
    "FarmSeedResult",
    "farm_task_spec",
    "format_seed_line",
    "result_from_diff",
    "run_farm_task",
    "CMCOpCheck",
    "check_cmc_op",
]
