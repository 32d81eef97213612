"""``BENCH_core.json`` and the table in ``docs/PERFORMANCE.md`` are views
of one perfbench result, written by ``scripts/bench_summary.py`` — never
edited by hand, never measured a second time."""

from __future__ import annotations

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load_script() -> dict:
    """The script's globals (scripts/ is not a package)."""
    return runpy.run_path(str(ROOT / "scripts" / "bench_summary.py"))


def test_committed_summary_covers_the_contract_and_the_docs_render_it():
    script = _load_script()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = json.loads((ROOT / "BENCH_core.json").read_text())
    assert sorted(summary) == ["meta", "workloads"]
    assert sorted(summary["meta"]) == ["command", "commit", "nproc", "python"]
    assert list(summary["workloads"]) == [w["name"] for w in bench["workloads"]]
    for name, run in summary["workloads"].items():
        assert list(run["metrics"]) == [m["name"] for m in bench["end_to_end"]], name
        for rec in run["metrics"].values():
            assert rec["q1"] <= rec["median"] <= rec["q3"], name
        assert run["failed_ops"] == 0 < run["ops"], name
        assert run["sim_cycles"] > 0 and run["sim_requests"] > 0, name
    doc = (ROOT / "docs" / "PERFORMANCE.md").read_text()
    block = doc.split(script["BEGIN"])[1].split(script["END"])[0]
    assert block == script["render"](summary)


def test_summary_is_a_pure_view_of_the_result():
    # The script reads the keys perfbench/compare.py reads and adds nothing.
    script = _load_script()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    stats = {"value": 2.0, "median": 2.0, "q1": 1.5, "q3": 2.5, "min": 1.0, "max": 3.0, "n": 5}
    run = {
        "sim_cycles": 10, "sim_requests": 20, "ops": 5, "failed_ops": 0, "ops_per_pass": 1,
        "metrics": {m["name"]: {**stats, "unit": m["unit"]} for m in bench["end_to_end"]},
    }
    result = {
        "meta": {"git_commit": "c" * 40, "python": "3.x", "nproc": 2, "seed": 7,
                 "seconds": 10.0, "smoke": False},
        "workloads": {w["name"]: run for w in bench["workloads"]},
    }
    summary = script["summarise"](result, bench)
    assert summary["meta"]["command"] == "python3 perfbench/run.py --seed 7 --seconds 10"
    assert summary["workloads"]["deep_queue"]["metrics"]["wall_s"] == {
        "unit": "s", "median": 2.0, "q1": 1.5, "q3": 2.5,
    }
    assert "| `deep_queue` | 2 [1.5, 2.5] |" in script["render"](summary)
