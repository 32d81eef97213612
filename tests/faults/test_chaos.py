"""Chaos runs: whole-stack fault plans, parallel bit-identity, caching.

The chaos seed can be varied from CI (``REPRO_CHAOS_SEED``) so the
suite explores different deterministic fault histories across matrix
legs while every individual run stays reproducible.
"""

import os

from repro.analysis.sweep import run_mutex_sweep
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import TagWatchdog
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from repro.parallel.cache import SweepCache
from repro.parallel.tasks import cache_key
from repro.workloads.registry import WORKLOADS
from tests.conftest import run_workload

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0x0C4A05"), 0)

#: A device-wide plan touching every layer: DRAM ECC, vault timing,
#: crossbar delivery, and CMC execution.
CHAOS_SPECS = (
    "dram_bitflip=0.02,uncorrectable=0.25",
    "vault_stall=0.01,duration=4",
    "xbar_drop=0.01",
    "xbar_dup=0.01",
    "cmc_crash=0.002",
)


def read_program(ctx, count=4):
    for i in range(count):
        yield ctx.read((ctx.tid * 7 + i) * 64, 16)


class TestChaosRuns:
    def test_full_stack_chaos_completes(self):
        plan = FaultPlan.parse(list(CHAOS_SPECS), seed=CHAOS_SEED)
        sim = HMCSim(HMCConfig.cfg_4link_4gb(), faults=plan)
        engine = HostEngine(
            sim, watchdog=TagWatchdog(timeout=128), invariants=True,
            max_cycles=200_000,
        )
        engine.add_threads(16, read_program)
        result = engine.run()
        assert all(t.responses == 4 for t in result.threads)
        assert result.invariant_checks > 0
        assert sum(sim.faults.counts.values()) > 0

    def test_chaos_mutex_workload_is_deterministic(self):
        plan = FaultPlan.parse(["xbar_drop=0.01", "xbar_dup=0.01"], seed=CHAOS_SEED)
        cfg = HMCConfig.cfg_4link_4gb()
        a = run_workload("mutex", cfg, threads=12, fault_plan=plan)
        b = run_workload("mutex", cfg, threads=12, fault_plan=plan)
        assert a == b

    def test_different_seed_changes_history(self):
        cfg = HMCConfig.cfg_4link_4gb()
        runs = [
            run_workload(
                "mutex", cfg, threads=24,
                fault_plan=FaultPlan.parse(["xbar_drop=0.02"], seed=s),
            )
            for s in (CHAOS_SEED, CHAOS_SEED ^ 0x5A5A5A)
        ]
        # Different seeds produce different fault histories (with 24
        # threads and a 2% drop rate, collisions are implausible).
        assert runs[0] != runs[1]


class TestSerialParallelIdentity:
    def test_faulty_sweep_bit_identical_across_jobs(self):
        plan = FaultPlan.parse(
            ["xbar_drop=0.05", "vault_stall=0.02,duration=4"], seed=CHAOS_SEED
        )
        cfg = HMCConfig.cfg_4link_4gb()
        counts = list(range(2, 11, 2))
        jobs = int(os.environ.get("REPRO_TEST_JOBS", "2"))
        serial = run_mutex_sweep(
            cfg, counts, use_cache=False, jobs=1, fault_plan=plan
        )
        parallel = run_mutex_sweep(
            cfg, counts, use_cache=False, jobs=jobs, fault_plan=plan
        )
        assert serial.runs == parallel.runs
        # The plan really fired somewhere along the sweep.
        assert sum(r.faults_injected for r in serial.runs) > 0


class TestFaultAwareCaching:
    def test_faulty_key_never_aliases_fault_free(self, tmp_path):
        """Regression: a faulty run must never be served from (or into)
        a fault-free cache entry."""
        cfg = HMCConfig.cfg_4link_4gb()
        plan = FaultPlan.parse(["xbar_dup=1.0"], seed=CHAOS_SEED)
        cache = SweepCache(root=tmp_path)
        counts = [2, 4]

        faulty = run_mutex_sweep(
            cfg, counts, cache=cache, jobs=1, fault_plan=plan
        )
        assert all(r.faults_injected > 0 for r in faulty.runs)

        # A fault-free sweep over the same axis misses the faulty
        # entries and computes clean points.
        clean = run_mutex_sweep(cfg, counts, cache=cache, jobs=1)
        assert all(r.faults_injected == 0 for r in clean.runs)

        # And both are now cached side by side: repeat requests hit
        # their own entries, still without aliasing.
        faulty2 = run_mutex_sweep(
            cfg, counts, cache=cache, jobs=1, fault_plan=plan
        )
        clean2 = run_mutex_sweep(cfg, counts, cache=cache, jobs=1)
        assert faulty2.runs == faulty.runs
        assert clean2.runs == clean.runs

    def test_key_segments(self):
        mutex_spec = WORKLOADS.get("mutex").task_spec
        cfg = HMCConfig.cfg_4link_4gb()
        plan = FaultPlan.parse(["xbar_drop=0.1"])
        k_plain = cache_key(mutex_spec(cfg, 4))
        k_faulty = cache_key(mutex_spec(cfg, 4, fault_plan=plan))
        # Fault-free keys are unchanged (old cache entries stay valid);
        # faulty keys append the plan fingerprint.
        assert k_faulty.startswith(k_plain + "-f")
        # Seed and parameters both reach the key.
        k_seed = cache_key(
            mutex_spec(
                cfg, 4, fault_plan=FaultPlan.parse(["xbar_drop=0.1"], seed=1)
            )
        )
        k_rate = cache_key(
            mutex_spec(cfg, 4, fault_plan=FaultPlan.parse(["xbar_drop=0.2"]))
        )
        assert len({k_faulty, k_seed, k_rate}) == 3
