"""Every bundled CMC op passes the one plugin conformance check.

The op list is the traffic generator's own discovery (every
``repro.cmc_ops`` module defining the execute symbol), so this suite and
the fuzzer cannot disagree about which ops exist.  A plugin written to
a scratch directory goes through the same check — and gets fuzzed and
shadow-sampled — with no edit under ``oracle/`` or ``host/``.
"""

import runpy
from pathlib import Path

import pytest

from repro.core.loader import load_cmc
from repro.errors import OracleDivergenceError
from repro.oracle import PROFILES, check_cmc_op, generate_trace
from repro.oracle.trafficgen import _BUNDLED_CMC

EXAMPLE = Path(__file__).parents[2] / "examples" / "custom_cmc_op.py"


@pytest.mark.parametrize("module", _BUNDLED_CMC)
def test_bundled_op_conforms(module):
    reg = load_cmc(module).registration
    verdict = check_cmc_op(module)
    assert verdict.op_name == reg.op_name
    assert verdict.requests > 0
    # hmc_list_push is the one op whose target is read from memory.
    assert (reg.footprint is None) == (reg.op_name == "hmc_list_push")
    if reg.footprint is None:
        assert "not sampled: declares no FOOTPRINT" in str(verdict)
    elif not reg.posted:
        assert verdict.oracle_checks == verdict.requests


def test_cmc_profiles_draw_from_the_bundled_set():
    codes = {load_cmc(m).cmd for m in _BUNDLED_CMC}
    for name in ("mixed", "cmc", "faulty"):
        assert PROFILES[name].cmc_modules == _BUNDLED_CMC
    drawn = {
        r.cmd
        for seed in range(4)
        for r in generate_trace(seed, profile="cmc", count=256).requests
    }
    assert codes <= drawn


def _write_plugin(tmp_path, source, name="scratch_op.py"):
    path = tmp_path / name
    path.write_text(source)
    return path


def test_scratch_plugin_is_fuzzed_and_sampled(tmp_path):
    source = runpy.run_path(str(EXAMPLE))["PLUGIN_SOURCE"]
    assert "FOOTPRINT = 16" in source
    verdict = check_cmc_op(_write_plugin(tmp_path, source))
    assert verdict.op_name == "hmc_strchr16"
    assert verdict.requests > 0
    assert verdict.oracle_checks > 0


def test_under_declared_footprint_diverges(tmp_path):
    # bloom touches a 64-byte filter; declaring 16 makes the shadow
    # oracle synchronize too little state.
    path = _write_plugin(
        tmp_path,
        "from repro.cmc_ops.bloom import *\nFOOTPRINT = 16\n",
    )
    with pytest.raises(OracleDivergenceError, match="cmd=0x06"):
        check_cmc_op(path)


@pytest.mark.parametrize("declared", ["", "FOOTPRINT = 8192"])
def test_unplaceable_scratch_op_is_refused(tmp_path, declared):
    source = runpy.run_path(str(EXAMPLE))["PLUGIN_SOURCE"]
    path = _write_plugin(tmp_path, source.replace("FOOTPRINT = 16", declared))
    with pytest.raises(ValueError, match="declares no FOOTPRINT of 1..4096"):
        check_cmc_op(path)
