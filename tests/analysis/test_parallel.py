"""Parallel experiment engine: determinism, cache, executor contracts.

The engine's whole contract is "same results, more cores": a sweep fanned
across N worker processes must be bit-identical to the serial one, and a
warm cache must serve exactly the results a cold run computed.  The thread
ranges here are reduced (the full paper axis is 2..100) so the suite stays
tier-1 fast; CI re-runs the parity cases per ``REPRO_TEST_JOBS`` matrix leg.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from typing import Dict, Tuple

import pytest

from repro.analysis.sweep import run_mutex_sweep
from repro.faults.plan import FaultPlan
from repro.hmc.config import HMCConfig
from repro.oracle.farm import farm_task_spec, run_farm_task
from repro.parallel import (
    SweepCache,
    SweepExecutor,
    cache_key,
    component_fingerprint,
    config_fingerprint,
    TaskSpec,
    resolve_jobs,
    run_task,
)
from repro.registry import decode_value, encode_value
from repro.workloads.registry import WORKLOADS

#: Reduced sweep axis: cheap, but still spans low and contended counts.
AXIS = list(range(2, 11))

#: CI matrix legs export REPRO_TEST_JOBS to pin one worker count each;
#: local runs cover both.
PARITY_JOBS = [int(j) for j in os.environ.get("REPRO_TEST_JOBS", "2,4").split(",")]


def mutex_spec(cfg, threads, **kwargs):
    """One Algorithm-1 sweep point, built through the registry."""
    return WORKLOADS.get("mutex").task_spec(cfg, threads, **kwargs)


class TestDeterminism:
    @pytest.mark.parametrize("jobs", PARITY_JOBS)
    @pytest.mark.parametrize("cfg_name", ["cfg_4link_4gb", "cfg_8link_8gb"])
    def test_parallel_sweep_bit_identical(self, jobs, cfg_name):
        cfg = getattr(HMCConfig, cfg_name)()
        serial = run_mutex_sweep(cfg, AXIS, jobs=1, use_cache=False)
        fanned = run_mutex_sweep(cfg, AXIS, jobs=jobs, use_cache=False)
        # Full per-point stats, not just the figure series.
        assert fanned.runs == serial.runs
        assert fanned.min_cycles == serial.min_cycles
        assert fanned.max_cycles == serial.max_cycles
        assert fanned.avg_cycles == serial.avg_cycles
        assert fanned.table6_row() == serial.table6_row()

    def test_executor_preserves_submission_order(self):
        cfg = HMCConfig.cfg_4link_4gb()
        # Deliberately non-monotone axis: results must come back in
        # submission order, not thread-count or completion order.
        axis = [8, 2, 6, 3]
        specs = [mutex_spec(cfg, n) for n in axis]
        results = SweepExecutor(jobs=2).run(specs)
        assert [r.threads for r in results] == axis
        assert results == [run_task(s) for s in specs]

    def test_jobs_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1
        assert resolve_jobs(3) == 3


class TestCache:
    def test_cold_then_warm_round_trip(self, tmp_path):
        cfg = HMCConfig.cfg_4link_4gb()
        specs = [mutex_spec(cfg, n) for n in AXIS]

        cold_cache = SweepCache(tmp_path)
        cold = SweepExecutor(jobs=1, cache=cold_cache).run(specs)
        assert cold_cache.stats.misses == len(specs)
        assert cold_cache.stats.stores == len(specs)
        assert len(list(tmp_path.glob("*.json"))) == len(specs)

        warm_cache = SweepCache(tmp_path)
        warm = SweepExecutor(jobs=1, cache=warm_cache).run(specs)
        assert warm == cold
        assert warm_cache.stats.hits == len(specs)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.stores == 0

    def test_run_mutex_sweep_reads_disk_cache(self, tmp_path):
        cfg = HMCConfig.cfg_8link_8gb()
        axis = [2, 4, 6]
        cold_cache = SweepCache(tmp_path)
        cold = run_mutex_sweep(cfg, axis, cache=cold_cache)
        warm_cache = SweepCache(tmp_path)
        warm = run_mutex_sweep(cfg, axis, cache=warm_cache)
        assert warm.runs == cold.runs
        assert warm_cache.stats.hits == len(axis)
        assert warm_cache.stats.misses == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cfg = HMCConfig.cfg_4link_4gb()
        spec = mutex_spec(cfg, 2)
        cache = SweepCache(tmp_path)
        result = SweepExecutor(jobs=1, cache=cache).run([spec])[0]
        cache.path_for(cache_key(spec)).write_text("{not json")
        fresh = SweepCache(tmp_path)
        again = SweepExecutor(jobs=1, cache=fresh).run([spec])[0]
        assert again == result
        assert fresh.stats.misses == 1 and fresh.stats.stores == 1

    def test_result_codec_round_trip(self):
        cfg = HMCConfig.cfg_4link_4gb()
        stats = run_task(mutex_spec(cfg, 3))
        assert decode_value(encode_value(stats)) == stats

    def test_warm_result_keeps_tuples_and_int_keys(self, tmp_path):
        spec = TaskSpec(
            kernel="shaped",
            kernel_version="1",
            runner="tests.analysis.test_parallel:_shaped_runner",
            config=HMCConfig.cfg_4link_4gb(),
            threads=1,
        )
        cold = SweepExecutor(jobs=1, cache=SweepCache(tmp_path)).run([spec])
        warm_cache = SweepCache(tmp_path)
        warm = SweepExecutor(jobs=1, cache=warm_cache).run([spec])
        assert warm_cache.stats.hits == 1
        assert warm == cold == [_shaped_runner(spec)]
        assert type(warm[0].hist) is tuple

    def test_stored_none_is_a_hit(self, tmp_path):
        spec = TaskSpec(
            kernel="nothing",
            kernel_version="1",
            runner="tests.analysis.test_parallel:_none_runner",
            config=HMCConfig.cfg_4link_4gb(),
            threads=1,
        )
        assert SweepExecutor(jobs=1, cache=SweepCache(tmp_path)).run([spec]) == [None]
        for _ in range(2):
            warm = SweepCache(tmp_path)
            assert SweepExecutor(jobs=1, cache=warm).run([spec]) == [None]
            assert (warm.stats.hits, warm.stats.misses, warm.stats.stores) == (1, 0, 0)

    def test_entry_whose_class_moved_is_a_miss(self, tmp_path):
        spec = mutex_spec(HMCConfig.cfg_4link_4gb(), 2)
        parent = SweepExecutor(jobs=1, cache=SweepCache(tmp_path)).run([spec])
        path = SweepCache(tmp_path).path_for(cache_key(spec))
        doc = json.loads(path.read_text())
        doc["payload"]["__dc__"] = "repro.host.kernels.mutex:MutexRunStats"
        path.write_text(json.dumps(doc))
        fresh = SweepCache(tmp_path)
        assert SweepExecutor(jobs=1, cache=fresh).run([spec]) == parent
        assert (fresh.stats.hits, fresh.stats.misses, fresh.stats.stores) == (0, 1, 1)
        assert json.loads(path.read_text())["payload"] == encode_value(parent[0])


#: Cache keys, a plan fingerprint and a farm digest as the releases
#: before the single :func:`repro.registry.digest` wrote them: entries
#: and seed lines already on disk must keep their names.
_PLAN = ("cmc_crash=0.2", "link_crc=0.01")
PUBLISHED = {
    "mutex": "mutex-w8b409718bcb9a22c-7157262fa7b02ab8-cb92fe41759844c0-t8-d2c89cc01bbde5ab",
    "plan": "9dab90ba27f676d7",
    "farm": "fuzz-fuzz-farm-1-7157262fa7b02ab8-cb92fe41759844c0-t0-67953ad3d4830e96",
    "farm_seed0": "2f1a7753d0cf0691",
}


class TestPublishedDigests:
    def test_mutex_cache_keys_and_plan_fingerprint(self):
        cfg = HMCConfig.cfg_4link_4gb()
        plan = FaultPlan.parse(list(_PLAN), seed=3)
        assert plan.fingerprint() == PUBLISHED["plan"]
        assert cache_key(mutex_spec(cfg, 8)) == PUBLISHED["mutex"]
        assert cache_key(mutex_spec(cfg, 8, fault_plan=plan)) == (
            PUBLISHED["mutex"] + "-f" + PUBLISHED["plan"]
        )

    def test_farm_key_and_seed_digest(self):
        spec = farm_task_spec(0, profile="mixed")
        assert cache_key(spec) == PUBLISHED["farm"]
        assert run_farm_task(spec).digest == PUBLISHED["farm_seed0"]


class TestTaskSpecs:
    def test_spec_is_picklable(self):
        spec = mutex_spec(HMCConfig.cfg_4link_4gb(), 17)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert cache_key(clone) == cache_key(spec)

    def test_component_overrides_never_alias(self):
        # The retired in-process dict aliased coarse keys; fingerprints
        # must separate any two configs differing in a component choice.
        base = HMCConfig.cfg_4link_4gb()
        swapped = HMCConfig.cfg_4link_4gb(xbar="ideal")
        assert config_fingerprint(base) != config_fingerprint(swapped)
        assert component_fingerprint(base) != component_fingerprint(swapped)
        assert cache_key(mutex_spec(base, 2)) != cache_key(
            mutex_spec(swapped, 2)
        )

    def test_workload_fingerprint_is_part_of_the_key(self):
        from repro.workloads.registry import WORKLOADS

        spec = mutex_spec(HMCConfig.cfg_4link_4gb(), 2)
        assert WORKLOADS.fingerprint("mutex") in cache_key(spec)
        assert cache_key(spec).startswith("mutex-")

    def test_repointing_the_registry_name_changes_the_key(self):
        # No-alias: the cache key must track the implementation behind
        # the registry name, not the name alone.
        from repro.host.kernels.mutex_kernel import MutexWorkload
        from repro.workloads.registry import register_workload

        spec = mutex_spec(HMCConfig.cfg_4link_4gb(), 2)
        before = cache_key(spec)

        class PatchedMutex(MutexWorkload):
            version = MutexWorkload.version + "-patched"

        register_workload(PatchedMutex, replace=True)
        try:
            assert cache_key(spec) != before
        finally:
            register_workload(MutexWorkload, replace=True)
        assert cache_key(spec) == before

    def test_repointing_a_fault_kind_changes_the_faulty_key(self):
        # The fault segment tracks each kind's implementation, as the
        # workload and component segments do: a replaced injector must
        # not be served the old injector's cached results.
        from repro.faults import FAULTS, FaultPlan, register_fault

        plan = FaultPlan.parse(["xbar_drop=0.01"])
        spec = mutex_spec(HMCConfig.cfg_4link_4gb(), 2, fault_plan=plan)
        before = cache_key(spec)
        kind = FAULTS.get("xbar_drop")
        meta = dict(primary=kind.primary, defaults=dict(kind.defaults), doc=kind.doc)

        class PatchedDrop(kind.factory):
            pass

        register_fault("xbar_drop", replace=True, **meta)(PatchedDrop)
        try:
            assert cache_key(spec) != before
        finally:
            register_fault("xbar_drop", replace=True, **meta)(kind.factory)
        assert cache_key(spec) == before

    def test_thread_count_is_part_of_the_key(self):
        cfg = HMCConfig.cfg_4link_4gb()
        assert cache_key(mutex_spec(cfg, 2)) != cache_key(mutex_spec(cfg, 3))


class TestProgress:
    def test_callback_sees_every_point_in_order(self, tmp_path):
        cfg = HMCConfig.cfg_4link_4gb()
        axis = [2, 3, 4, 5]
        specs = [mutex_spec(cfg, n) for n in axis]
        cache = SweepCache(tmp_path)
        SweepExecutor(jobs=1, cache=cache).run(specs)

        calls = []
        warm = SweepCache(tmp_path)
        SweepExecutor(
            jobs=1,
            cache=warm,
            progress=lambda done, total, spec, cached: calls.append(
                (done, total, spec.threads, cached)
            ),
        ).run(specs)
        assert [c[0] for c in calls] == [1, 2, 3, 4]
        assert all(c[1] == 4 for c in calls)
        assert [c[2] for c in calls] == axis
        assert all(c[3] for c in calls)  # warm run: every point cached


@dataclass(frozen=True)
class _Shaped:
    """A result whose fields JSON alone would reshape."""

    hist: Tuple[int, ...]
    by_vault: Dict[int, int]


def _shaped_runner(spec):
    return _Shaped(hist=(1, 2, 3), by_vault={0: 5, 7: 9})


def _none_runner(spec):
    return None


def _boom_runner(spec):
    """Worker-side runner that fails on one sweep point (picklable by
    dotted path, like every TaskSpec runner)."""
    if spec.threads == 5:
        raise ValueError(f"boom at {spec.threads}")
    return spec.threads


def _boom_specs(n=8):
    cfg = HMCConfig.cfg_4link_4gb()
    return [
        TaskSpec(
            kernel="boom",
            kernel_version="1",
            runner="tests.analysis.test_parallel:_boom_runner",
            config=cfg,
            threads=t,
        )
        for t in range(2, 2 + n)
    ]


class TestWorkerCleanup:
    """A failing chunk (or an interrupt) must not leak pool processes:
    the executor terminates and *joins* its workers before the error
    propagates — load-bearing once the serve fleet multiplexes
    long-lived sessions over this pool."""

    def _assert_no_orphans(self):
        import multiprocessing
        import time

        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_failing_chunk_does_not_leak_workers(self):
        ex = SweepExecutor(jobs=2, chunk_size=1)
        with pytest.raises(ValueError, match="boom"):
            ex.run(_boom_specs())
        self._assert_no_orphans()

    def test_successful_run_reaps_workers(self):
        results = SweepExecutor(jobs=2, chunk_size=1).run(
            [s for s in _boom_specs() if s.threads != 5]
        )
        assert results == [t for t in range(2, 10) if t != 5]
        self._assert_no_orphans()

    def test_parent_side_error_does_not_leak_workers(self):
        # An exception raised in the parent's per-point bookkeeping
        # (progress hook) mid-imap takes the same terminate path.
        def bad_progress(done, total, spec, hit):
            raise RuntimeError("progress exploded")

        ex = SweepExecutor(jobs=2, chunk_size=1, progress=bad_progress)
        with pytest.raises(RuntimeError, match="progress exploded"):
            ex.run([s for s in _boom_specs() if s.threads != 5])
        self._assert_no_orphans()
