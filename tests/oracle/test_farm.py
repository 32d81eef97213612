"""Fuzz-farm tests: serial/farm determinism, caching, seed lines.

The farm's contract is that fanning seeds across the sweep pool
changes *nothing* about per-seed verdicts — same digests as the serial
loop, warm-cache runs included.  CI pins the same property end-to-end
by diffing ``fuzz`` against ``fuzz --farm`` output.
"""

import pytest

from repro.oracle import (
    farm_task_spec,
    format_seed_line,
    generate_trace,
    result_from_diff,
    run_farm_task,
    run_trace,
)
from repro.parallel.cache import SweepCache
from repro.parallel.pool import SweepExecutor

_SEEDS = [0, 1, 2]


def _serial_results(profile="mixed", count=48):
    return [
        result_from_diff(
            run_trace(generate_trace(s, profile=profile, count=count))
        )
        for s in _SEEDS
    ]


def _specs(profile="mixed", count=48):
    return [
        farm_task_spec(s, profile=profile, count=count) for s in _SEEDS
    ]


def _farm(specs, cache=True):
    """The farm as ``fuzz --farm`` runs it: the sweep pool, in-process."""
    return SweepExecutor(1, cache=SweepCache() if cache else None).run(specs)


class TestDeterminism:
    def test_farm_matches_serial_digests(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        farm = _farm(_specs())
        assert [r.digest for r in farm] == [
            r.digest for r in _serial_results()
        ]

    def test_farm_matches_serial_on_faulty_profile(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        farm = _farm(_specs(profile="faulty"))
        serial = _serial_results(profile="faulty")
        assert [r.digest for r in farm] == [r.digest for r in serial]
        # The faulty profile's watchdog facts ride along in the record.
        assert any(r.fault_counts for r in farm)

    def test_worker_task_equals_direct_diff(self):
        spec = farm_task_spec(3, profile="cmc", count=48)
        direct = result_from_diff(
            run_trace(generate_trace(3, profile="cmc", count=48))
        )
        assert run_farm_task(spec) == direct


class TestCache:
    def test_warm_cache_reproduces_bit_identically(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = _farm(_specs())
        assert list(tmp_path.glob("*.json")), "no cache entries written"
        warm = _farm(_specs())
        assert warm == cold

    def test_no_cache_bypasses_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _farm(_specs()[:1], cache=False)
        assert not list(tmp_path.glob("*.json"))

    def test_cache_keys_distinguish_profiles(self):
        from repro.parallel.tasks import cache_key

        a = farm_task_spec(0, profile="mixed")
        b = farm_task_spec(0, profile="cmc")
        assert cache_key(a) != cache_key(b)

    def test_cache_keys_distinguish_overrides(self):
        from repro.parallel.tasks import cache_key

        a = farm_task_spec(0, profile="mixed")
        b = farm_task_spec(0, profile="mixed", overrides={"xbar": "vector"})
        assert cache_key(a) != cache_key(b)


class TestSeedLine:
    def test_line_carries_verdict_and_digest(self):
        r = result_from_diff(
            run_trace(generate_trace(0, profile="mixed", count=32))
        )
        line = format_seed_line(r)
        assert line.startswith("seed=0 profile=mixed ")
        assert ": OK" in line
        assert f"digest={r.digest}" in line

    def test_line_shows_watchdog_facts_under_faults(self):
        for seed in range(4):
            r = result_from_diff(
                run_trace(generate_trace(seed, profile="faulty", count=64))
            )
            if r.retransmits:
                line = format_seed_line(r)
                assert "watchdog:" in line and "retransmits" in line
                assert "faults:" in line
                return
        pytest.fail("no faulty seed produced a retransmit")
