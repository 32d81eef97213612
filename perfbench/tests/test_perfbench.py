"""Tests of the benchmark itself (not part of the tier-1 ``testpaths``).

    python -m pytest perfbench/tests -q

Every run uses the ``--smoke`` sizing: the numbers mean nothing, the
schema, the checks and the tracer's hygiene are what is tested.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], stdout=subprocess.PIPE, timeout=300
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run of all six workloads."""
    tmp = tmp_path_factory.mktemp("perfbench")
    out = tmp / "result.json"
    done = run("--smoke", "--trace", "--out", str(out),
               "--golden-file", str(tmp / "golden.json"))
    assert done.returncode == 0, done.stdout.decode()[-2000:]
    return json.loads(out.read_text())


def test_result_schema(smoke):
    meta = smoke["meta"]
    for key in ("git_commit", "python", "numpy", "nproc", "loadavg_1m_start",
                "loadavg_1m_end", "seed", "passes"):
        assert key in meta
    assert sorted(smoke["workloads"]) == sorted(WORKLOADS)
    assert sorted(meta["passes"]) == sorted(WORKLOADS)
    for name, result in smoke["workloads"].items():
        assert result["failed_ops"] == 0, result["failures"]
        assert result["ops"] >= result["ops_per_pass"] >= 1
        assert result["sim_cycles"] > 0
        assert len(result["op_digests"]) == result["ops_per_pass"]
        assert result["golden"] == "absent"


def test_every_benchmark_metric_is_reported(smoke):
    for name, result in smoke["workloads"].items():
        assert set(result["metrics"]) == set(E2E), name
        for metric, rec in result["metrics"].items():
            assert rec["unit"] == E2E[metric]
            assert rec["value"] > 0, (name, metric)
            assert {"median", "q1", "q3", "min", "max", "n"} <= set(rec)
        assert set(result["per_layer"]) == set(PER_LAYER), name
        for metric, rec in result["per_layer"].items():
            assert rec["unit"] == PER_LAYER[metric]
            assert rec["value"] is None or isinstance(rec["value"], (int, float))
        # Nothing was deleted from src/ yet: every boundary resolves.
        assert result["missing_boundaries"] == {}
        assert (ROOT / result["trace_file"]).exists()


def test_layers_show_up_where_the_workload_uses_them(smoke):
    layers = {n: {m: r["value"] for m, r in w["per_layer"].items()}
              for n, w in smoke["workloads"].items()}
    assert layers["mutex_sweep"]["core.cmc.executes"] > 0
    assert layers["deep_queue"]["hmc.vault.process_rqsts"] > 0
    assert layers["deep_queue"]["hmc.vector.device_cycle_s"] == 0
    assert layers["deep_queue"]["hmc.packet.builds"] == 0  # prebuilt
    assert layers["deep_queue_vector"]["hmc.vector.rows_per_batch"] > 0
    assert layers["deep_queue_vector"]["hmc.vector.spills"] == 0
    assert layers["stream_gups"]["hmc.packet.builds"] > 0
    assert layers["serve_closed"]["hmc.checkpoint.saves"] > 0
    assert layers["serve_closed"]["serve.session.journal_bytes"] > 0
    assert layers["cli_sweep"]["parallel.cache.hit_ratio"] > 0
    assert layers["cli_sweep"]["cli.import_s"] > 0
    assert layers["deep_queue"]["sim.cycles"] == layers["deep_queue_vector"]["sim.cycles"]


def test_contract_line_and_goldens(tmp_path):
    golden = tmp_path / "golden.json"
    base = ("--workload", "stream_gups", "--smoke", "--golden-file", str(golden))

    done = run(*base, "--trace", "0")
    assert done.returncode == 0
    line = json.loads(done.stdout.decode().strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {m: r["unit"] for m, r in line["metrics"].items()} == E2E
    assert not golden.exists()  # goldens are never written without the flag

    assert run(*base, "--capture-golden").returncode == 0
    doc = json.loads(golden.read_text())
    assert run(*base).returncode == 0  # matches what was just captured

    doc["stream_gups"]["smoke-seed1"][1] = "0" * 16
    golden.write_text(json.dumps(doc))
    done = run(*base)
    assert done.returncode == 1
    text = done.stdout.decode()
    line = json.loads(text.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    assert "op 1 (gups atomic=True)" in text  # names the op that diverged first
    assert json.loads(golden.read_text()) == doc  # and leaves the golden alone


def test_tracer_restores_every_attribute_and_tolerates_missing_targets():
    import repro.serve.schemas
    import repro.serve.session
    from perfbench.layers import BOUNDARIES, LayerProbe
    from perfbench.trace import Tracer

    import importlib

    def resolve(target):
        module, _, qualname = target.partition(":")
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if attr in vars(k))
        return owner, attr

    targets = [resolve(target) for _, target, _ in BOUNDARIES]
    before = [vars(owner)[attr] for owner, attr in targets]
    rebound = repro.serve.session.canonical_json

    tracer = Tracer()
    LayerProbe(tracer).install()
    assert all(vars(o)[a] is not b for (o, a), b in zip(targets, before))
    # ``from repro.serve.schemas import canonical_json`` was followed.
    assert repro.serve.session.canonical_json is repro.serve.schemas.canonical_json
    assert repro.serve.session.canonical_json is not rebound
    assert tracer.missing == {}

    assert tracer.patch("gone.attr", "repro.hmc.sim:HMCSim.no_such_method") is False
    assert tracer.patch("gone.class", "repro.hmc.sim:NoSuchClass.run") is False
    assert tracer.patch("gone.module", "repro.no_such_module:f") is False
    assert set(tracer.missing) == {"gone.attr", "gone.class", "gone.module"}
    assert not tracer.known("gone.module") and tracer.total_s("gone.module") == 0

    tracer.restore()
    assert all(vars(o)[a] is b for (o, a), b in zip(targets, before))
    assert repro.serve.session.canonical_json is rebound


def test_tracer_self_time_excludes_traced_callees():
    import types

    from perfbench.trace import Tracer

    mod = types.ModuleType("perfbench_fake_layer")

    def inner():
        return sum(range(2000))

    def outer():
        return [mod.inner() for _ in range(50)]

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    assert tracer.patch_attr("fake.inner", mod, "inner")
    assert tracer.patch_attr("fake.outer", mod, "outer", span=True)
    mod.outer()
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    assert tracer.calls("fake.inner") == 50 and tracer.calls("fake.outer") == 1
    assert tracer.total_s("fake.outer") >= tracer.total_s("fake.inner")
    self_s = tracer.self_s("fake.outer")
    assert abs(self_s - (tracer.total_s("fake.outer") - tracer.total_s("fake.inner"))) < 1e-9
    assert [rec[0] for rec in tracer.spans()] == ["fake.outer"]


def test_compare_flags_regressions_and_simulated_drift(smoke, capsys):
    import copy

    from perfbench.compare import compare

    assert compare(smoke, smoke, BENCH) == []
    slower = copy.deepcopy(smoke)
    rec = slower["workloads"]["deep_queue"]["metrics"]["peak_rss_mb"]
    rec.update({k: rec[k] * 1.5 for k in ("value", "median", "q1", "q3", "min", "max")})
    drifted = slower["workloads"]["stream_gups"]
    drifted["sim_cycles"] += 1
    problems = compare(smoke, slower, BENCH)
    assert any("deep_queue: peak_rss_mb regressed" in p for p in problems)
    assert any("stream_gups: sim_cycles changed" in p for p in problems)
    assert "regressed" in capsys.readouterr().out
