"""ASCII plot and CSV export tests."""

import csv
import io
from dataclasses import dataclass

import pytest

from repro.analysis.export import records_to_csv, sweep_to_csv, write_csv
from repro.analysis.plot import ascii_plot, plot_sweeps
from repro.analysis.sweep import run_mutex_sweep
from repro.hmc.config import HMCConfig


class TestAsciiPlot:
    def test_basic_render(self):
        out = ascii_plot([0, 1, 2], [[0, 5, 10]], ["series"], title="T")
        assert out.startswith("T")
        assert "* series" in out
        assert "*" in out

    def test_two_series_markers(self):
        out = ascii_plot([0, 1], [[0, 1], [1, 0]], ["a", "b"])
        assert "* a" in out and "+ b" in out

    def test_overlap_marked(self):
        out = ascii_plot([0, 1], [[0, 1], [0, 1]], ["a", "b"])
        assert "=" in out  # identical series collapse to overlap marks

    def test_constant_series_ok(self):
        ascii_plot([0, 1, 2], [[5, 5, 5]], ["flat"])

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot([], [], [])
        with pytest.raises(ValueError):
            ascii_plot([0], [[1]], ["a", "b"])
        with pytest.raises(ValueError):
            ascii_plot([0, 1], [[1]], ["a"])
        with pytest.raises(ValueError):
            ascii_plot([0], [[1]], ["a"], width=2)

    def test_dimensions(self):
        out = ascii_plot([0, 1], [[0, 10]], ["s"], width=40, height=10)
        plot_lines = [l for l in out.splitlines() if "|" in l]
        assert len(plot_lines) == 10

    def test_plot_sweeps_helper(self):
        sweeps = [
            run_mutex_sweep(HMCConfig.cfg_4link_4gb(), [2, 10, 20]),
            run_mutex_sweep(HMCConfig.cfg_8link_8gb(), [2, 10, 20]),
        ]
        out = plot_sweeps("Fig 6", sweeps, "max_cycles")
        assert "Fig 6" in out
        assert "4Link-4GB" in out and "8Link-8GB" in out
        # Identical configs at low counts -> overlap marks present.
        assert "=" in out


class TestSweepCSV:
    @pytest.fixture(scope="class")
    def sweeps(self):
        return [
            run_mutex_sweep(HMCConfig.cfg_4link_4gb(), [2, 10]),
            run_mutex_sweep(HMCConfig.cfg_8link_8gb(), [2, 10]),
        ]

    def test_layout(self, sweeps):
        text = sweep_to_csv(sweeps)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "threads",
            "4link_4gb_min", "4link_4gb_max", "4link_4gb_avg",
            "8link_8gb_min", "8link_8gb_max", "8link_8gb_avg",
        ]
        assert len(rows) == 3
        assert rows[1][0] == "2"

    def test_values_match_sweep(self, sweeps):
        rows = list(csv.reader(io.StringIO(sweep_to_csv(sweeps))))
        assert int(rows[1][1]) == sweeps[0].min_cycles[0]
        assert int(rows[2][2]) == sweeps[0].max_cycles[1]

    def test_mismatched_axes_rejected(self):
        a = run_mutex_sweep(HMCConfig.cfg_4link_4gb(), [2, 10])
        b = run_mutex_sweep(HMCConfig.cfg_8link_8gb(), [2])
        with pytest.raises(ValueError):
            sweep_to_csv([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sweep_to_csv([])

    def test_write_csv(self, sweeps, tmp_path):
        p = write_csv(tmp_path / "sub" / "out.csv", sweep_to_csv(sweeps))
        assert p.exists()
        assert p.read_text().startswith("threads,")


@dataclass
class _Rec:
    name: str
    value: int


class TestRecordsCSV:
    def test_dataclass_export(self):
        text = records_to_csv([_Rec("a", 1), _Rec("b", 2)])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0] == {"name": "a", "value": "1"}

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            records_to_csv([{"name": "a"}])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            records_to_csv([])

    def test_kernel_stats_export(self):
        from repro.workloads.registry import WORKLOADS

        stats = [
            WORKLOADS.get("mutex").run(HMCConfig.cfg_4link_4gb(), {"threads": n})
            for n in (2, 4)
        ]
        text = records_to_csv(stats)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["threads"] == "2"
        assert rows[0]["min_cycle"] == "6"
