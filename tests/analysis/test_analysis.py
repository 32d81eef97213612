"""Analysis-layer tests: the §V.C metric, Table II model, sweeps, table rendering."""

import pytest

from repro.analysis.amo_traffic import (
    PAPER_FLIT_BYTES,
    cache_rmw_flits,
    hmc_amo_flits,
    table2_rows,
    traffic_reduction_factor,
)
from repro.analysis.sweep import run_mutex_sweep
from repro.analysis.tables import (
    format_table,
    render_table1,
    render_table2,
    render_table5,
    render_table6,
    render_figure_series,
)
from repro.analysis.verify import PAPER_ANCHORS, relative_difference_pct
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.parallel.cache import SweepCache


class TestStats:
    def test_relative_difference(self):
        # Table VI's maxima give §V.C's "1.2%"-ish 8-link advantage.
        max4 = PAPER_ANCHORS["table6_max_4link"].value
        max8 = PAPER_ANCHORS["table6_max_8link"].value
        assert relative_difference_pct(max4, max8) == pytest.approx(1.275, abs=0.01)

    def test_relative_difference_zero_ref(self):
        with pytest.raises(ValueError):
            relative_difference_pct(0, 1)


class TestTable2Model:
    def test_cache_rmw_is_12_flits(self):
        # Table II: (1+5) + (5+1) FLITs for a 64-byte line.
        assert cache_rmw_flits(64) == 12

    def test_inc8_is_2_flits(self):
        assert hmc_amo_flits(hmc_rqst_t.INC8) == 2

    def test_paper_bytes_match_table(self):
        rows = {r.amo_type: r for r in table2_rows()}
        # Verbatim Table II values.
        assert rows["Cache-Based"].bytes_paper == 1536
        assert rows["HMC-Based"].bytes_paper == 256

    def test_spec_bytes_use_16_byte_flits(self):
        rows = {r.amo_type: r for r in table2_rows()}
        assert rows["Cache-Based"].bytes_spec == 192
        assert rows["HMC-Based"].bytes_spec == 32

    def test_reduction_factor_is_six(self):
        assert traffic_reduction_factor() == 6.0

    def test_reduction_invariant_to_unit(self):
        rows = {r.amo_type: r for r in table2_rows()}
        assert rows["Cache-Based"].bytes_paper / rows["HMC-Based"].bytes_paper == 6.0
        assert rows["Cache-Based"].bytes_spec / rows["HMC-Based"].bytes_spec == 6.0

    def test_other_line_sizes(self):
        assert cache_rmw_flits(128) == 2 + 2 * (1 + 8)

    def test_paper_flit_bytes_constant(self):
        assert PAPER_FLIT_BYTES == 128


class TestSweep:
    @pytest.fixture(scope="class")
    def sweeps(self):
        counts = [2, 10, 60]
        return [
            run_mutex_sweep(HMCConfig.cfg_4link_4gb(), counts),
            run_mutex_sweep(HMCConfig.cfg_8link_8gb(), counts),
        ]

    def test_series_lengths(self, sweeps):
        for s in sweeps:
            assert len(s.threads) == len(s.min_cycles) == len(s.max_cycles) == 3

    def test_table6_row_shape(self, sweeps):
        name, mn, mx, avg = sweeps[0].table6_row()
        assert name == "4Link-4GB"
        assert mn == 6
        assert mx >= mn
        assert isinstance(avg, float)

    def test_worst_case_is_max(self, sweeps):
        wc = sweeps[0].worst_case()
        assert wc.max_cycle == max(sweeps[0].max_cycles)

    def test_cache_bypass(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        cfg = HMCConfig.cfg_4link_4gb()
        explicit = SweepCache(tmp_path / "explicit")
        bypassed = run_mutex_sweep(cfg, [2], use_cache=False)
        run_mutex_sweep(cfg, [2], use_cache=False, cache=explicit)
        assert not list(tmp_path.iterdir())
        assert explicit.stats.misses == explicit.stats.stores == 0
        assert run_mutex_sweep(cfg, [2]).runs == bypassed.runs
        assert len(list((tmp_path / "default").glob("*.json"))) == 1


class TestRendering:
    def test_format_table_alignment(self):
        out = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_table1_contains_every_gen2_addition(self):
        out = render_table1()
        for name in ("RD256", "WR256", "P_WR256", "INC8", "CASZERO16", "SWAP16"):
            assert name in out

    def test_table1_flit_columns(self):
        out = render_table1()
        # RD256 row: request 1 flit, response 17 flits.
        row = next(l for l in out.splitlines() if l.startswith("RD256"))
        assert " 1 " in row and "17" in row

    def test_table2_verbatim_values(self):
        out = render_table2()
        assert "1536" in out and "256" in out
        assert "INC8 Command" in out

    def test_table5_from_live_registry(self, sim_with_mutex):
        out = render_table5(sim_with_mutex.cmc)
        assert "hmc_lock" in out and "CMC125" in out
        assert "hmc_trylock" in out and "RD_RS" in out
        assert "hmc_unlock" in out and "127" in out

    def test_table5_ignores_non_mutex_ops(self, sim_with_mutex):
        sim_with_mutex.load_cmc("repro.cmc_ops.fadd64")
        out = render_table5(sim_with_mutex.cmc)
        assert "hmc_fadd64" not in out

    def test_table6_rendering(self):
        sweeps = [
            run_mutex_sweep(HMCConfig.cfg_4link_4gb(), [2, 10]),
            run_mutex_sweep(HMCConfig.cfg_8link_8gb(), [2, 10]),
        ]
        out = render_table6(sweeps)
        assert "4Link-4GB" in out and "8Link-8GB" in out
        assert "Min Cycle Count" in out

    def test_figure_series_rendering(self):
        sweeps = [
            run_mutex_sweep(HMCConfig.cfg_4link_4gb(), [2, 10]),
            run_mutex_sweep(HMCConfig.cfg_8link_8gb(), [2, 10]),
        ]
        out = render_figure_series("Figure 5", sweeps, "min_cycles")
        assert out.startswith("Figure 5")
        assert "Threads" in out

    def test_figure_series_range_mismatch(self):
        a = run_mutex_sweep(HMCConfig.cfg_4link_4gb(), [2, 10])
        b = run_mutex_sweep(HMCConfig.cfg_8link_8gb(), [2])
        with pytest.raises(ValueError):
            render_figure_series("x", [a, b], "min_cycles")
