"""Paper-anchor verification tests."""

import io
from pathlib import Path

import pytest

from repro.analysis.sweep import run_mutex_sweep
from repro.analysis.verify import (
    PAPER_ANCHORS,
    Anchor,
    render_verification_report,
    verify_all,
)
from repro.cli import main
from repro.hmc.config import HMCConfig


class TestAnchor:
    def test_exact_pass(self):
        a = Anchor("x", 10, 10, 0.0)
        assert a.passed and a.deviation == 0.0

    def test_exact_fail(self):
        assert not Anchor("x", 10, 11, 0.0).passed

    def test_tolerance_band(self):
        assert Anchor("x", 100, 104, 0.05).passed
        assert not Anchor("x", 100, 106, 0.05).passed

    def test_deviation_computation(self):
        assert Anchor("x", 200, 210, 0.1).deviation == pytest.approx(0.05)

    def test_zero_paper_value(self):
        assert Anchor("x", 0, 0, 0.0).passed
        assert not Anchor("x", 0, 1, 0.0).passed


class TestVerifyAll:
    @pytest.fixture(scope="class")
    def anchors(self):
        # Reduced axis keeps the test fast; the full 2..100 sweep is
        # exercised by `hmcsim-repro verify` and the benchmarks.
        sweeps = [
            run_mutex_sweep(HMCConfig.cfg_4link_4gb(), [2, 99, 100]),
            run_mutex_sweep(HMCConfig.cfg_8link_8gb(), [2, 99, 100]),
        ]
        return verify_all(sweeps)

    def test_table2_anchors_exact(self, anchors):
        by_name = {a.name: a for a in anchors}
        for name in (
            "Table II cache-based bytes",
            "Table II HMC-based bytes",
            "Table II traffic reduction",
        ):
            assert by_name[name].passed
            assert by_name[name].deviation == 0.0

    def test_table6_minimums_exact(self, anchors):
        by_name = {a.name: a for a in anchors}
        assert by_name["Table VI 4-link min"].measured == 6
        assert by_name["Table VI 8-link min"].measured == 6

    def test_all_anchors_pass(self, anchors):
        failing = [a.name for a in anchors if not a.passed]
        assert not failing, f"anchors out of tolerance: {failing}"

    def test_anchor_count_matches_constants(self, anchors):
        assert len(anchors) == len(PAPER_ANCHORS)

    def test_report_rendering(self, anchors):
        text = render_verification_report(anchors)
        assert "PASS" in text
        assert "Table VI 4-link max" in text
        assert f"{sum(a.passed for a in anchors)}/{len(anchors)}" in text

    def test_report_shows_failures(self):
        text = render_verification_report(
            [Anchor("bogus", 1.0, 2.0, 0.0)]
        )
        assert "FAIL" in text
        assert "0/1" in text


class TestCommittedArtifacts:
    """``verify`` and ``table 6`` on the axis [2, 99, 100] print the
    committed full-axis artifacts: both extremes of the paper's sweep
    sit on that axis, so every anchor sees its full-sweep value."""

    OUT = Path(__file__).resolve().parents[2] / "benchmarks" / "out"
    AXIS = ["--threads", "2:100:97", "--no-cache"]

    def _run(self, argv, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = io.StringIO()
        code = main(argv + self.AXIS, out=out)
        return code, out.getvalue()

    def test_verify_prints_verification_txt(self, tmp_path, monkeypatch):
        code, text = self._run(["verify"], tmp_path, monkeypatch)
        assert code == 0
        assert text == (self.OUT / "verification.txt").read_text()

    def test_table6_prints_the_summary_table(self, tmp_path, monkeypatch):
        code, text = self._run(["table", "6"], tmp_path, monkeypatch)
        head = (self.OUT / "table6_summary.txt").read_text().splitlines(True)[:4]
        assert code == 0
        assert text == "".join(head)
