#!/usr/bin/env python3
"""Publish one perfbench result: ``BENCH_core.json`` and the docs table.

    python3 perfbench/run.py --seed 1
    python scripts/bench_summary.py perfbench/out/result-seed1.json

Measures nothing.  ``BENCH_core.json`` is a view of the result file (per
workload: median/q1/q3 of every end-to-end metric ``BENCHMARK.json``
declares, the simulated totals, the op counts) and the marked block of
``docs/PERFORMANCE.md`` is a view of ``BENCH_core.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
DOC_FILE = ROOT / "docs" / "PERFORMANCE.md"
BEGIN, END = "<!-- bench_summary:begin -->\n", "<!-- bench_summary:end -->\n"
COUNTS = ("sim_cycles", "sim_requests", "ops", "failed_ops")


def summarise(result: Dict[str, Any], bench: Dict[str, Any]) -> Dict[str, Any]:
    meta = result["meta"]
    if meta["smoke"]:
        sys.exit("bench_summary: a --smoke result carries no numbers")
    command = f"python3 perfbench/run.py --seed {meta['seed']} --seconds {meta['seconds']:g}"
    workloads = {}
    for name in (w["name"] for w in bench["workloads"]):
        run = result["workloads"][name]
        workloads[name] = {key: run[key] for key in COUNTS}
        workloads[name]["metrics"] = {
            m["name"]: {"unit": m["unit"], **{
                k: round(run["metrics"][m["name"]][k], 4) for k in ("median", "q1", "q3")}}
            for m in bench["end_to_end"]
        }
    return {"meta": {"commit": meta["git_commit"], "python": meta["python"],
                     "nproc": meta["nproc"], "command": command}, "workloads": workloads}


def render(summary: Dict[str, Any]) -> str:
    """The docs block: one row per workload, median [q1, q3] per metric."""
    meta, runs = summary["meta"], summary["workloads"]
    metrics = next(iter(runs.values()))["metrics"]
    heads = [f"`{m}` ({rec['unit']})" for m, rec in metrics.items()] + [f"`{c}`" for c in COUNTS]
    lines = [
        f"`{meta['command']}` on commit `{meta['commit'][:7]}`, Python {meta['python']}, "
        f"{meta['nproc']} cores; median [q1, q3] over the run's timed passes "
        "(`op_p50_ms`/`op_p95_ms`: over each pass's own percentile).\n",
        "| workload | " + " | ".join(heads) + " |",
        "|---" * (1 + len(heads)) + "|",
    ]
    for name, run in runs.items():
        cells = [f"{r['median']:g} [{r['q1']:g}, {r['q3']:g}]" for r in run["metrics"].values()]
        cells += [str(run[c]) for c in COUNTS]
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv: List[str]) -> None:
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    head, begin, rest = DOC_FILE.read_text().partition(BEGIN)
    _, end, tail = rest.partition(END)
    if not (begin and end):
        sys.exit(f"bench_summary: no {BEGIN.strip()} … {END.strip()} block in {DOC_FILE}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = summarise(json.loads(Path(argv[0]).read_text()), bench)
    (ROOT / "BENCH_core.json").write_text(json.dumps(summary, indent=1) + "\n")
    DOC_FILE.write_text(head + BEGIN + render(summary) + END + tail)


if __name__ == "__main__":
    main(sys.argv[1:])
