"""CLI tests (argument parsing and command output)."""

import io

import pytest

from repro.cli import _parse_threads, build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    rc = main(list(argv), out=out)
    return rc, out.getvalue()


class TestThreadSpec:
    def test_single(self):
        assert _parse_threads("8") == [8]

    def test_range(self):
        assert _parse_threads("2:5") == [2, 3, 4, 5]

    def test_stepped_range_includes_endpoint(self):
        assert _parse_threads("2:10:4") == [2, 6, 10]

    def test_bad_specs(self):
        import argparse

        for bad in ("x", "5:2", "0:5", "1:2:3:4", "2:10:0"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_threads(bad)


class TestCommands:
    def test_info(self):
        rc, out = run_cli("info")
        assert rc == 0
        assert "70 CMC-eligible codes" in out
        assert "4Link-4GB" in out

    def test_table_1(self):
        rc, out = run_cli("table", "1")
        assert rc == 0
        assert "RD256" in out and "SWAP16" in out

    def test_table_2(self):
        rc, out = run_cli("table", "2")
        assert rc == 0
        assert "1536" in out

    def test_table_5(self):
        rc, out = run_cli("table", "5")
        assert rc == 0
        assert "hmc_trylock" in out

    def test_table_6_small_axis(self):
        rc, out = run_cli("table", "6", "--threads", "2:6:2")
        assert rc == 0
        assert "Min Cycle Count" in out
        assert "4Link-4GB" in out

    def test_sweep_series(self):
        rc, out = run_cli("sweep", "--threads", "2:10:4", "--config", "4link")
        assert rc == 0
        assert "Figure 5" in out and "Figure 7" in out

    def test_sweep_plot_and_csv(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        rc, out = run_cli(
            "sweep", "--threads", "2:10:4", "--plot", "--csv", str(csv_path)
        )
        assert rc == 0
        assert "(= overlap)" in out  # ASCII chart legend
        assert csv_path.exists()
        assert csv_path.read_text().startswith("threads,")

    def test_kernel_mutex(self):
        rc, out = run_cli("kernel", "mutex", "--threads", "4")
        assert rc == 0
        assert "min=6" in out

    def test_kernel_ticket(self):
        rc, out = run_cli("kernel", "ticket", "--threads", "4")
        assert rc == 0
        assert "fifo=True" in out

    def test_kernel_gups(self):
        rc, out = run_cli("kernel", "gups", "--threads", "4")
        assert rc == 0
        assert "atomic" in out and "rmw" in out

    def test_kernel_hist(self):
        rc, out = run_cli("kernel", "hist", "--threads", "4")
        assert rc == 0
        assert "flits/sample" in out

    def test_kernel_stream_8link(self):
        rc, out = run_cli("kernel", "stream", "--threads", "4", "--config", "8link")
        assert rc == 0
        assert "8Link-8GB" in out

    def test_kernel_bfs(self):
        rc, out = run_cli("kernel", "bfs", "--threads", "4")
        assert rc == 0
        assert "verified=True" in out

    def test_openloop(self):
        rc, out = run_cli("openloop", "--rate", "2", "--duration", "64")
        assert rc == 0
        assert "below the knee" in out

    def test_openloop_saturated(self):
        rc, out = run_cli("openloop", "--rate", "30", "--duration", "128")
        assert rc == 0
        assert "SATURATED" in out

    def test_chase(self):
        rc, out = run_cli("chase", "--length", "16")
        assert rc == 0
        assert "3.00 cycles/hop" in out
        assert "order=ok" in out

    def test_chase_timed_scatter(self):
        rc, out = run_cli("chase", "--length", "16", "--scatter", "--timing")
        assert rc == 0
        assert "scattered, timed" in out

    def test_analyze(self, tmp_path):
        trace = tmp_path / "t.trace"
        trace.write_text(
            "HMCSIM_TRACE : CMD : CYCLE=1 : RQST=hmc_lock : DEV=0 : QUAD=0 "
            ": VAULT=3 : BANK=0 : ADDR=0x0 : LENGTH=2\n"
            "HMCSIM_TRACE : LATENCY : CYCLE=3 : TAG=0 : CYCLES=2\n"
        )
        rc, out = run_cli("analyze", str(trace), "--histogram")
        assert rc == 0
        assert "hmc_lock=1" in out
        assert "0-3: 1" in out

    def test_analyze_missing_file(self, tmp_path):
        rc, out = run_cli("analyze", str(tmp_path / "none.trace"))
        assert rc == 1

    def test_verify_reduced_axis(self):
        rc, out = run_cli("verify", "--threads", "2:100:97")
        # The reduced axis still hits 2, 99, 100 — every anchor holds.
        assert rc == 0
        assert "11/11 anchors" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "3"])


class TestComponentFlag:
    def test_info_lists_registered_components(self):
        rc, out = run_cli("info")
        assert rc == 0
        assert "pipeline components" in out
        assert "xbar: ideal, queued*" in out
        assert "vault_scheduler: fifo*, round_robin" in out

    def test_kernel_with_component_override(self):
        rc, out = run_cli(
            "kernel", "mutex", "--threads", "4",
            "--component", "xbar=ideal",
            "--component", "vault_scheduler=round_robin",
        )
        assert rc == 0
        assert "mutex x4" in out

    def test_unknown_seam_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["kernel", "mutex", "--component", "warp=fast"]
            )

    def test_unknown_impl_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["kernel", "mutex", "--component", "xbar=warp"]
            )

    def test_configs_apply_overrides(self):
        from repro.hmc.config import CONFIGS, resolve_config

        overrides = [("xbar", "ideal"), ("memory", "chunked")]
        for cfg in (resolve_config(name, overrides) for name in CONFIGS):
            assert cfg.xbar == "ideal"
            assert cfg.memory == "chunked"
            assert cfg.vault_scheduler == "fifo"  # untouched seams keep defaults


class TestRefusedInput:
    """Refused input is one ``hmcsim-repro: error:`` line and exit 2."""

    def test_fault_an_injector_refuses(self, capsys):
        rc, _ = run_cli(
            "sweep", "--threads", "2:4", "--no-cache", "--fault", "xbar_drop=2"
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("hmcsim-repro: error:") and "rate=2" in err

    def test_oracle_sample_under_a_fault_plan(self, capsys):
        rc, _ = run_cli(
            "kernel", "mutex", "--threads", "4",
            "--fault", "xbar_drop=0.01", "--oracle-sample", "2",
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("hmcsim-repro: error:") and "oracle_sample" in err

    @pytest.mark.parametrize(
        "argv", [["sweep", "--fault-seed", "zz"], ["fuzz", "--seed", "zz"]]
    )
    def test_seed_flags_name_the_expected_integer(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "expected an integer, got 'zz'" in err and "lambda" not in err
