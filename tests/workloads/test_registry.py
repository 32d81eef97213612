"""The workload registry: resolution, params, fingerprints.

The registry is the workload seam's composition mechanism: everything
that runs a workload resolves it by string name, and the cache key of a
parallel sweep point tracks the registered implementation via
``fingerprint``.  The register/lookup/load/fingerprint contract the
workload registry shares with the component and fault registries is in
``tests/test_registry.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.faults.plan import FaultPlan
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.workloads.base import WorkloadFrontend
from repro.workloads.registry import WORKLOADS

#: Every frontend the catalog registers, by kind.
KERNELS = {
    "mutex",
    "ticket",
    "stream",
    "gups",
    "bfs",
    "hist",
    "chase",
    "barrier",
    "sssp",
}
OTHERS = {"trace", "graph:counter", "graph:pipeline", "graph:kvstore"}


def test_catalog_registers_every_frontend():
    assert set(WORKLOADS.keys()) == KERNELS | OTHERS
    assert set(WORKLOADS.keys(kind="kernel")) == KERNELS
    assert set(WORKLOADS.keys(kind="graph")) == {
        "graph:counter",
        "graph:pipeline",
        "graph:kvstore",
    }
    assert set(WORKLOADS.keys(kind="trace")) == {"trace"}


def test_get_returns_a_fresh_instance_per_call():
    # Frontends keep per-run state (loaded traces, built graphs);
    # sharing instances would leak it across runs.
    a = WORKLOADS.get("mutex")
    b = WORKLOADS.get("mutex")
    assert a is not b
    assert type(a) is type(b)
    assert isinstance(a, WorkloadFrontend)


def test_unknown_name_is_a_workload_error():
    with pytest.raises(WorkloadError, match="no workload registered"):
        WORKLOADS.get("nope")
    with pytest.raises(WorkloadError):
        WORKLOADS.fingerprint("nope")
    assert not WORKLOADS.has("nope")


def test_unknown_param_is_rejected_with_the_valid_set():
    frontend = WORKLOADS.get("mutex")
    with pytest.raises(WorkloadError, match="lock_addr"):
        frontend.resolve_params({"lock_adr": 0})


def test_params_merge_over_defaults():
    frontend = WORKLOADS.get("mutex")
    resolved = frontend.resolve_params({"threads": 3})
    assert resolved["threads"] == 3
    assert resolved["lock_addr"] == frontend.default_params()["lock_addr"]


def test_describe_rows_cover_every_name():
    rows = WORKLOADS.describe()
    assert {name for name, _, _ in rows} == KERNELS | OTHERS
    assert all(desc for _, _, desc in rows)


def test_global_fingerprints_are_distinct():
    fps = [WORKLOADS.fingerprint(name) for name in WORKLOADS.keys()]
    assert len(set(fps)) == len(fps)


# -- pinned identities ---------------------------------------------------------
#
# Served payloads carry the registry fingerprint and stats encoded under
# their ``module:qualname``; perfbench's goldens digest those bytes.  A
# frontend moved to another module keeps its fingerprint by naming the
# old one in ``published_module``; any other move or rename of these
# classes must come with a golden re-capture.

PINNED_FINGERPRINTS = {
    "mutex": "w8b409718bcb9a22c",
    "ticket": "w1d829cd1bed5a320",
    "stream": "w48f6e025b84f0302",
}
PINNED_STATS = {
    "mutex": "repro.host.kernels.mutex_kernel:MutexRunStats",
    "ticket": "repro.host.kernels.ticket_kernel:TicketRunStats",
    "stream": "repro.host.kernels.stream:StreamStats",
}


@pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
def test_served_identities_are_pinned(name):
    assert WORKLOADS.fingerprint(name) == PINNED_FINGERPRINTS[name]
    stats = WORKLOADS.get(name).run(HMCConfig.cfg_4link_4gb(), {"threads": 2})
    cls = type(stats)
    assert f"{cls.__module__}:{cls.__qualname__}" == PINNED_STATS[name]


# -- run(sim=...) is self-sufficient -------------------------------------------


@pytest.mark.parametrize("name", ["mutex", "ticket", "barrier"])
def test_run_prepares_a_bare_caller_sim(name):
    # The CMC-backed kernels used to raise CMCNotActiveError on a
    # caller-provided sim unless the caller had run prepare() first.
    cfg = HMCConfig.cfg_4link_4gb()
    fresh = WORKLOADS.get(name).run(cfg, {"threads": 4})
    assert WORKLOADS.get(name).run(cfg, {"threads": 4}, sim=HMCSim(cfg)) == fresh
    # prepare is idempotent: callers that still call it get the same stats.
    frontend, sim = WORKLOADS.get(name), HMCSim(cfg)
    params = frontend.resolve_params({"threads": 4})
    frontend.prepare(sim, params)
    assert frontend.run(cfg, params, sim=sim) == fresh
    assert frontend.verify(sim, params, fresh) is True


def _crashing_sim(cfg):
    return HMCSim(cfg, faults=FaultPlan.parse(["cmc_crash=0.2"], seed=1))


@pytest.mark.parametrize("name", ["barrier", "ticket"])
def test_a_faulty_caller_sim_is_refused_like_a_fault_plan(name):
    # Faults attached to the caller's context are a fault plan all the
    # same: these programs cannot recover from a crashed CMC op and
    # deadlock instead.
    cfg = HMCConfig.cfg_4link_4gb()
    with pytest.raises(WorkloadError, match="does not support fault plans"):
        WORKLOADS.get(name).run(
            cfg, {"threads": 8, "max_cycles": 10_000}, sim=_crashing_sim(cfg)
        )


def test_mutex_runs_on_a_faulty_caller_sim():
    cfg = HMCConfig.cfg_4link_4gb()
    stats = WORKLOADS.get("mutex").run(cfg, {"threads": 8}, sim=_crashing_sim(cfg))
    assert stats.faults_injected > 0


# -- one place rejects out-of-range parameters ---------------------------------

BAD_PARAMS = [
    ("mutex", {"threads": 0}, "'threads' must be an integer in"),
    ("mutex", {"threads": "8"}, "'threads' must be an integer in"),
    ("mutex", {"threads": True}, "'threads' must be an integer in"),
    ("mutex", {"threads": 2049}, "'threads' must be an integer in"),
    ("mutex", {"oracle_sample": 0}, "'oracle_sample' must be"),
    ("mutex", {"max_cycles": 0}, "'max_cycles' must be an integer >= 1"),
    ("ticket", {"threads": 0}, "'threads' must be"),
    ("barrier", {"threads": 1}, r"'threads' must be an integer in \[2, 2048\]"),
    ("barrier", {"rounds": 0}, "'rounds' must be"),
    ("stream", {"threads": 0}, "'threads' must be"),
    ("stream", {"blocks_per_thread": 0}, "'blocks_per_thread' must be"),
    ("stream", {"block_bytes": 24}, "'block_bytes' must be one of"),
    ("stream", {"q": "3"}, "'q' must be a number"),
    ("stream", {"windowed": 1}, "'windowed' must be a boolean"),
    ("gups", {"threads": 0}, "'threads' must be"),
    ("gups", {"updates_per_thread": 0}, "'updates_per_thread' must be"),
    ("gups", {"table_entries": 0}, "'table_entries' must be"),
    ("hist", {"threads": 0}, "'threads' must be"),
    ("hist", {"bins": 0}, "'bins' must be"),
    ("hist", {"mode": "bogus"}, "'mode' must be one of 'atomic', 'posted', 'rmw'"),
    ("chase", {"length": 0}, "'length' must be an integer >= 1"),
    ("bfs", {"threads": 0}, "'threads' must be"),
    ("bfs", {"vertices": 0}, "'vertices' must be"),
    ("sssp", {"threads": 0}, "'threads' must be"),
    ("sssp", {"source": -1}, "'source' must be"),
]


@pytest.mark.parametrize("name,params,message", BAD_PARAMS)
def test_bad_parameter_is_a_workload_error_naming_it(name, params, message):
    frontend = WORKLOADS.get(name)
    with pytest.raises(WorkloadError, match=message):
        frontend.resolve_params(params)
    # run() refuses before building anything.
    with pytest.raises(WorkloadError, match=message):
        frontend.run(HMCConfig.cfg_4link_4gb(), params)


def test_every_domain_bounds_a_parameter_the_workload_takes():
    # A domain on a name the workload does not take bounds nothing, and
    # run() refuses that name as unknown.
    stray = {}
    for name in WORKLOADS.keys():
        frontend = WORKLOADS.get(name)
        extra = set(frontend.param_domains) - set(frontend.default_params())
        if extra:
            stray[name] = sorted(extra)
    assert stray == {}


def test_unset_optional_and_numeric_widening_are_accepted():
    assert WORKLOADS.get("mutex").resolve_params({"oracle_sample": None})
    assert WORKLOADS.get("stream").resolve_params({"q": 2})["q"] == 2
