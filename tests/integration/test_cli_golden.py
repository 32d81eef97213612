"""CLI stdout golden: the fast invocations, byte for byte.

Each case runs ``repro.cli.main`` in-process and compares its exit code
and stdout with ``golden_cli_stdout.json``.  A refactor of the command
line (parsing, config resolution, dispatch) must leave every byte here
unchanged.  ``trace record`` writes into a temporary directory, so its
path is written as ``<trace>`` in the golden.

``PYTHONPATH=src python tests/integration/test_cli_golden.py`` REWRITES
the golden from the current code; only after an intended output change.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).with_name("golden_cli_stdout.json")
TRACE = "<trace>"

#: case name -> one or more argv lists, run in order.
CASES = {
    "info": [["info"]],
    "table-1": [["table", "1"]],
    "table-2": [["table", "2"]],
    "table-5": [["table", "5"]],
    "kernel-mutex": [["kernel", "mutex", "--threads", "4"]],
    "kernel-ticket": [["kernel", "ticket", "--threads", "4"]],
    "kernel-gups": [["kernel", "gups", "--threads", "4"]],
    "kernel-hist": [["kernel", "hist", "--threads", "4"]],
    "chase": [["chase"]],
    "graph-counter": [["graph", "counter", "--schedule"]],
    "graph-pipeline": [["graph", "pipeline", "--schedule"]],
    "graph-kvstore": [["graph", "kvstore", "--schedule"]],
    "openloop": [["openloop"]],
    "trace-record-replay": [
        ["trace", "record", "mutex", "--threads", "4", "-o", TRACE],
        ["trace", "replay", TRACE],
    ],
    "fuzz": [["fuzz", "--seeds", "0-4", "--count", "64"]],
    "sweep": [["sweep", "--threads", "2:6", "--no-cache"]],
}


def run_case(name: str, workdir: Path) -> dict:
    """Exit codes and the placeholder-normalised stdout of one case."""
    trace = str(workdir / "run.jsonl")
    codes, text = [], ""
    for argv in CASES[name]:
        out = io.StringIO()
        codes.append(main([trace if a == TRACE else a for a in argv], out=out))
        text += out.getvalue().replace(trace, TRACE)
    return {"codes": codes, "stdout": text}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name, tmp_path) == golden[name]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - golden capture
    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN} ({len(doc)} cases)\n")
