"""Smoke tests: every shipped example runs to completion.

Each example is executed in-process via :mod:`runpy` with stdout
captured, so a broken example fails CI the same way a broken module
would.  Arguments are patched to keep runtimes small.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv=()):
    """Execute one example script; returns its stdout."""
    buf = io.StringIO()
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        with redirect_stdout(buf):
            runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return buf.getvalue()


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "hmc_lock -> acquired=1" in out
        assert "INC8 x3 -> counter = 3" in out

    def test_mutex_contention_reduced(self):
        out = run_example("mutex_contention.py", ["10"])
        assert "4Link-4GB min" in out
        assert "Paper anchors" in out

    def test_custom_cmc_op(self):
        out = run_example("custom_cmc_op.py")
        assert "hmc_strchr16('m') -> index 7" in out
        assert "not found (-1)" in out
        assert "responses shadow-checked" in out

    def test_pim_offload_suite(self):
        out = run_example("pim_offload_suite.py")
        assert "LOST" in out  # rmw histogram drops updates
        assert "CASEQ8 offload" in out

    def test_chained_cubes(self):
        out = run_example("chained_cubes.py")
        assert "per-cube data verified" in out
        assert "acquired=1" in out

    def test_trace_analysis(self):
        out = run_example("trace_analysis.py")
        assert "hot spot confirmed: vault 0" in out
        assert "hmc_trylock" in out

    def test_device_telemetry(self):
        out = run_example("device_telemetry.py")
        assert "saturated" in out
        # The sampled block is deterministic: pinned line for line.
        block = out[out.index("--- sampled telemetry") :].splitlines()
        assert block == [
            "--- sampled telemetry at 20 req/cycle offered ---",
            "sampled 256 points over cycles 1..256",
            "delivered link bandwidth: 51.87 FLITs/cycle",
            "hottest vault queues: dev0.vault29 (peak 64, mean 18.9), "
            "dev0.vault30 (peak 64, mean 19.5), "
            "dev0.vault31 (peak 64, mean 19.1)",
            "busiest crossbar queues: dev0.link0.xbar_rsp (peak 128), "
            "dev0.link1.xbar_rsp (peak 128)",
        ]

    def test_every_example_has_a_smoke_test(self):
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        tested = {
            "quickstart.py", "mutex_contention.py", "custom_cmc_op.py",
            "pim_offload_suite.py", "chained_cubes.py", "trace_analysis.py",
            "device_telemetry.py",
        }
        assert scripts == tested, f"untested examples: {scripts - tested}"
