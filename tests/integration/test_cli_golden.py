"""CLI stdout golden: the fast invocations, byte for byte.

Each case runs ``repro.cli.main`` in-process and compares its exit code
and stdout with ``golden_cli_stdout.json``.  A refactor of the command
line (parsing, config resolution, dispatch) must leave every byte here
unchanged.  ``trace record`` writes into a temporary directory, so its
path is written as ``<trace>`` in the golden.

:data:`PARSER_CASES` are the outputs argparse writes itself: the help
text of the top level and of every subcommand, and the refusal of an
unknown registry-backed name.  Those pin stdout, stderr and the
``SystemExit`` code, with the terminal width fixed at 80 columns.

``PYTHONPATH=src python tests/integration/test_cli_golden.py`` REWRITES
the golden from the current code; only after an intended output change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main

GOLDEN = Path(__file__).with_name("golden_cli_stdout.json")
TRACE = "<trace>"

#: Records the trace the replay cases read.
_RECORD = ["trace", "record", "mutex", "--threads", "4", "-o", TRACE]

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
        _RECORD,
        ["trace", "replay", TRACE],
    ],
    "fuzz": [["fuzz", "--seeds", "0-4", "--count", "64"]],
    "sweep": [["sweep", "--threads", "2:6", "--no-cache"]],
    "kernel-mutex-fault": [
        ["kernel", "mutex", "--threads", "4", "--fault", "cmc_crash=0.2"]
    ],
    "kernel-mutex-oracle": [
        ["kernel", "mutex", "--threads", "4", "--oracle-sample", "2"]
    ],
    "chase-scatter-timing": [
        ["chase", "--scatter", "--component", "timing=open_page"]
    ],
    "graph-pipeline-plain": [["graph", "pipeline"]],
    "openloop-depth-stride": [
        ["openloop", "--depth", "8", "--pattern", "stride"]
    ],
    **{
        f"trace-replay-{name}": [_RECORD, ["trace", "replay", TRACE, *flags]]
        for name, flags in {
            "open": ["--mode", "open"],
            "open-depth": ["--mode", "open", "--depth", "8"],
            "8link": ["--config", "8link"],
            "round-robin": ["--component", "vault_scheduler=round_robin"],
        }.items()
    },
    "fuzz-trace": [_RECORD, ["fuzz", "--trace", TRACE]],
}

#: The farm fans the ``fuzz`` case's seeds across the sweep pool: its
#: stdout is the serial loop's, byte for byte.
FARM = ["fuzz", "--farm", "--seeds", "0-4", "--count", "64", "--no-cache"]

#: Every subcommand path, for its ``--help`` case.
_COMMANDS = [
    [], ["table"], ["sweep"], ["kernel"], ["trace"], ["trace", "record"],
    ["trace", "replay"], ["trace", "convert"], ["graph"], ["openloop"],
    ["chase"], ["analyze"], ["fuzz"], ["verify"], ["serve"], ["client"],
    ["client", "submit"], ["client", "attach"], ["client", "stat"], ["info"],
]

#: case name -> argv whose output and exit argparse produces itself.
PARSER_CASES = {
    **{"-".join(["help", *cmd]): [*cmd, "--help"] for cmd in _COMMANDS},
    "refuse-kernel": ["kernel", "nope"],
    "refuse-graph": ["graph", "nope"],
    "refuse-trace-record": ["trace", "record", "nope", "-o", "x"],
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


def run_parser_case(name: str) -> dict:
    """Exit code, stdout and stderr of one argv argparse answers itself."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(PARSER_CASES[name])
            code = None
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name, tmp_path) == golden[name]


@pytest.mark.parametrize("name", sorted(PARSER_CASES))
def test_parser_output_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert run_parser_case(name) == golden[name]


def test_farm_stdout_matches_the_serial_fuzz_case(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    golden = json.loads(GOLDEN.read_text())["fuzz"]
    out = io.StringIO()
    assert main(FARM, out=out) == golden["codes"][0]
    assert out.getvalue() == golden["stdout"]
    assert not (tmp_path / "cache").exists()


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(
        [*CASES, *PARSER_CASES]
    )


if __name__ == "__main__":  # pragma: no cover - golden capture
    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    doc.update({name: run_parser_case(name) for name in PARSER_CASES})
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN} ({len(doc)} cases)\n")
