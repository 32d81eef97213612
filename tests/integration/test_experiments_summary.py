"""EXPERIMENTS.md's paper-vs-measured block is a view of the committed
``benchmarks/out/`` artifacts and of ``PAPER_ANCHORS``, written by
``scripts/experiments_summary.py`` — never edited by hand."""

from __future__ import annotations

import runpy
import shutil
from pathlib import Path

import pytest

from repro.analysis.verify import PAPER_ANCHORS

ROOT = Path(__file__).resolve().parents[2]


def _load_script() -> dict:
    """The script's globals (scripts/ is not a package)."""
    return runpy.run_path(str(ROOT / "scripts" / "experiments_summary.py"))


def test_committed_block_is_a_render_of_the_artifacts():
    script = _load_script()
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    block = doc.split(script["BEGIN"])[1].split(script["END"])[0]
    assert block == script["render"]()
    for claim in PAPER_ANCHORS.values():
        assert f"| {claim.label} | {claim.ref} | {claim.value:g} |" in block


def test_a_stale_verification_report_is_refused(tmp_path):
    script = _load_script()
    for path in script["OUT_DIR"].glob("*.txt"):
        shutil.copy(path, tmp_path)
    # The report's paper column disagrees with the table on one row.
    report = tmp_path / "verification.txt"
    claim = PAPER_ANCHORS["table6_max_4link"]
    lines = report.read_text().splitlines(True)
    row = next(i for i, line in enumerate(lines) if line.startswith(claim.label))
    lines[row] = lines[row].replace(f"| {claim.value:g} ", f"| {claim.value + 1:g} ")
    report.write_text("".join(lines))
    with pytest.raises(SystemExit, match="does not list PAPER_ANCHORS"):
        script["render"](tmp_path)
