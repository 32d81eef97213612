#!/usr/bin/env python3
"""Publish EXPERIMENTS.md's paper-vs-measured block (E0, E5–E8).

    PYTHONPATH=src python -m pytest benchmarks/ -q --rootdir=benchmarks -p no:benchmark
    PYTHONPATH=src python scripts/experiments_summary.py

Measures nothing.  The marked block of ``EXPERIMENTS.md`` is a view of
the committed ``benchmarks/out/`` artifacts (the verification report,
Table VI's summary and the Figure 5–7 series) and of the paper's
numbers in ``repro.analysis.verify.PAPER_ANCHORS``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.analysis.verify import PAPER_ANCHORS

ROOT = Path(__file__).resolve().parent.parent
DOC_FILE = ROOT / "EXPERIMENTS.md"
OUT_DIR = ROOT / "benchmarks" / "out"
BEGIN, END = "<!-- experiments_summary:begin -->\n", "<!-- experiments_summary:end -->\n"
#: Thread counts shown in the series table: both ends, the paper's
#: "two to fifty" boundary and its 4-link worst case.
POINTS = (2, 50, 99, 100)
FIGURES = ("fig5_min_cycles", "fig6_max_cycles", "fig7_avg_cycles")

Series = Dict[int, Tuple[float, float]]


def read_table(path: Path) -> Tuple[List[str], List[List[str]]]:
    """Header and rows of the first ``format_table`` table in an artifact."""
    lines = path.read_text().splitlines()
    rule = next(i for i, line in enumerate(lines) if line and set(line) <= set("-+"))
    rows = []
    for line in lines[rule + 1:]:
        if not line.strip():
            break
        rows.append([cell.strip() for cell in line.split("|")])
    return [cell.strip() for cell in lines[rule - 1].split("|")], rows


def claim_rows(mins: Series, maxs: Series, avgs: Series) -> List[List[str]]:
    """§V.C's qualitative claims about Figures 5–7, each with its measurement."""
    axis = sorted(mins)
    high = [n for n in axis if n > 50]

    def gap(n: int) -> float:
        """Largest 4-link vs 8-link difference over the three series, in cycles."""
        return max(abs(s[n][0] - s[n][1]) for s in (mins, maxs, avgs))

    split = next((i for i, n in enumerate(axis) if gap(n) > 0), len(axis))
    low_gap = max(gap(n) for n in axis if n <= 50)
    low_pct = max(
        abs(s[n][0] - s[n][1]) / s[n][0] for s in (mins, maxs, avgs) for n in axis if n <= 50
    )
    wide = next((n for n in axis if gap(n) > 1), None)
    lo, hi = axis[0], axis[-1]
    slope = (maxs[hi][0] - maxs[lo][0]) / (hi - lo)
    return [
        ["min/max/avg **identical** between configs for 2–50 threads",
         (f"identical through {axis[split - 1]} threads" if split else "identical at no count")
         + f"; within {low_gap:g} cycle{'' if low_gap == 1 else 's'} (≤{100 * low_pct:.1f} %)"
         " through 50"],
        ["perturbations appear **beyond ~50 threads**",
         f"the gap first exceeds 1 cycle at N={wide}" if wide else "the gap never exceeds 1 cycle"],
        ["8-link min cycles slightly **lower** beyond 50 threads",
         f"8-link min ≤ 4-link min at {sum(mins[n][1] <= mins[n][0] for n in high)} of "
         f"{len(high)} counts N > 50 "
         f"(strictly lower at {sum(mins[n][1] < mins[n][0] for n in high)})"],
        ["max cycles grow with threads; 4-link overwhelmed first",
         f"4-link max grows ≈{slope:.1f} cycles/thread from N={lo} to {hi}; 4-link max above "
         f"8-link at {sum(maxs[n][0] > maxs[n][1] for n in high)} of {len(high)} counts N > 50"],
    ]


def anchor_rows(out_dir: Path) -> List[List[str]]:
    """One row per ``PAPER_ANCHORS`` claim, measured side from ``verification.txt``."""
    _, rows = read_table(out_dir / "verification.txt")
    expected = [[claim.label, f"{claim.value:g}"] for claim in PAPER_ANCHORS.values()]
    if [row[:2] for row in rows] != expected:
        sys.exit(
            "experiments_summary: benchmarks/out/verification.txt does not list "
            "PAPER_ANCHORS; regenerate it with pytest benchmarks/"
        )
    table = []
    for claim, (label, paper, measured, _, verdict) in zip(PAPER_ANCHORS.values(), rows):
        error = 100 * (float(measured) - claim.value) / claim.value
        table.append([
            label, claim.ref, paper, measured,
            "0" if error == 0 else f"{error:+.1f} %",
            "exact" if claim.tolerance == 0 else f"±{100 * claim.tolerance:g} %",
            verdict,
        ])
    return table


def markdown(header: List[str], rows: List[List[str]]) -> List[str]:
    return ["| " + " | ".join(header) + " |", "|---" * len(header) + "|"] + [
        "| " + " | ".join(row) + " |" for row in rows
    ]


def render(out_dir: Path = OUT_DIR) -> str:
    """The EXPERIMENTS.md block, from the artifacts in ``out_dir``."""
    cells = []
    for name in FIGURES:
        devices, rows = read_table(out_dir / f"{name}.txt")
        cells.append({int(n): (a, b) for n, a, b in rows})
    numbers = [{n: (float(a), float(b)) for n, (a, b) in s.items()} for s in cells]
    anchors = anchor_rows(out_dir)
    passed = sum(row[-1] == "PASS" for row in anchors)
    worst = next(
        line for line in (out_dir / "table6_summary.txt").read_text().splitlines()
        if line.startswith("Worst case:")
    )
    lines = [
        "Generated by `PYTHONPATH=src python scripts/experiments_summary.py` from "
        "`benchmarks/out/` and `repro.analysis.verify.PAPER_ANCHORS`; edit neither "
        "by hand.",
        "",
        "Figures 5–7 (`fig5_min_cycles.txt`, `fig6_max_cycles.txt`, "
        "`fig7_avg_cycles.txt`), the paper's qualitative claims:",
        "",
        *markdown(["Claim (paper, §V.C)", "Measured"], claim_rows(*numbers)),
        "",
        "Representative series points (min / max / avg):",
        "",
        *markdown(devices, [
            [str(n)] + [" / ".join(s[n][i] for s in cells) for i in (0, 1)] for n in POINTS
        ]),
        "",
        "Paper anchors (`verification.txt`; error is (measured − paper) / paper):",
        "",
        *markdown(
            ["Anchor", "Paper ref", "Paper", "Measured", "Error", "Tolerance", "Verdict"],
            anchors,
        ),
        "",
        f"{worst}  **{passed}/{len(anchors)} anchors PASS.**",
    ]
    return "\n".join(lines) + "\n"


def main(argv: List[str]) -> None:
    if argv:
        sys.exit(__doc__.split("\n\n")[1])
    head, begin, rest = DOC_FILE.read_text().partition(BEGIN)
    _, end, tail = rest.partition(END)
    if not (begin and end):
        sys.exit(f"experiments_summary: no {BEGIN.strip()} … {END.strip()} block in {DOC_FILE}")
    DOC_FILE.write_text(head + BEGIN + render() + END + tail)


if __name__ == "__main__":
    main(sys.argv[1:])
