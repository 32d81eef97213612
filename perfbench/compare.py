"""Compare two perfbench result files against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (base: A), and a verdict:

``ok``          B is not worse than A by more than the metric's bound;
``regressed``   it is;
``unresolved``  the pass-to-pass spread of either side (quartile distance
                over median) is wider than the bound, so the difference
                cannot be told from noise — unless every sample of B is
                better than every sample of A, which is ``ok``.

Exits non-zero on any ``regressed``, on any change in ``sim_cycles`` or
``ops_per_pass`` (simulated time must repeat exactly), or when B fails a
larger share of its ops than A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(rec: Dict[str, Any]) -> float:
    return (rec["q3"] - rec["q1"]) / rec["median"] if rec["median"] else 0.0


def verdict(spec: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    lower = spec["better"] == "lower"
    worse_by = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    if not lower:
        worse_by = -worse_by
    if max(spread(a), spread(b)) > spec["bound"]:
        all_better = b["max"] < a["min"] if lower else b["min"] > a["max"]
        return "ok" if all_better else "unresolved"
    return "regressed" if worse_by > spec["bound"] else "ok"


def compare(a_doc: Dict[str, Any], b_doc: Dict[str, Any], bench: Dict[str, Any]) -> List[str]:
    """Print the table; return the reasons to fail (empty = pass)."""
    problems: List[str] = []
    print(f"{'workload':18s} {'metric':20s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'B/A':>7s}  verdict")
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            problems.append(f"{name}: missing from B")
            continue
        for key in ("sim_cycles", "ops_per_pass"):
            if a[key] != b[key]:
                problems.append(f"{name}: {key} changed {a[key]} -> {b[key]}")
        if b["failed_ops"] * a["ops"] > a["failed_ops"] * b["ops"]:
            problems.append(
                f"{name}: failed ops {a['failed_ops']}/{a['ops']} -> "
                f"{b['failed_ops']}/{b['ops']}"
            )
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            ra, rb = a["metrics"][metric], b["metrics"][metric]
            status = verdict(spec, ra, rb)
            ratio = rb["value"] / ra["value"] if ra["value"] else float("nan")
            print(
                f"{name:18s} {metric:20s} "
                f"{ra['value']:14.4f} [{ra['q1']:10.4f},{ra['q3']:10.4f}] "
                f"{rb['value']:14.4f} [{rb['q1']:10.4f},{rb['q3']:10.4f}] "
                f"{ratio:7.3f}  {status} (bound {spec['bound']:.0%}, {spec['better']} is better)"
            )
            if status == "regressed":
                problems.append(f"{name}: {metric} regressed ({ratio:.3f}x of A)")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in argv)
    problems = compare(a_doc, b_doc, json.loads(BENCH_FILE.read_text()))
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
