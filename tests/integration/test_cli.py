"""CLI tests (argument parsing and command output)."""

import argparse
import io
from dataclasses import replace

import pytest

from repro.cli import _parse_threads, build_parser, main
from repro.parallel.pool import SweepExecutor


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
        rc, out = run_cli(
            "chase", "--length", "16", "--scatter", "--component", "timing=open_page"
        )
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

    def test_divergent_seed_reports_one_way_with_or_without_farm(
        self, tmp_path, monkeypatch
    ):
        # Stripped conflict fencing makes seed 0 of the spec profile race
        # (tests/oracle/test_repros.py): a stand-in for a datapath bug.
        import repro.oracle
        import repro.oracle.farm

        real = repro.oracle.generate_trace

        def raced(*args, **kwargs):
            t = real(*args, **kwargs)
            unfenced = (replace(r, footprint=0, mutates=False) for r in t.requests)
            return replace(t, requests=tuple(unfenced))

        monkeypatch.setattr(repro.oracle, "generate_trace", raced)
        monkeypatch.setattr(repro.oracle.farm, "generate_trace", raced)
        argv = ["fuzz", "--profile", "spec", "--count", "64", "--emit-repro", str(tmp_path)]
        rc, serial = run_cli(*argv, "--shrink")
        assert rc == 1
        assert "  shrunk to 2 request(s), 0 preload(s):\n" in serial
        assert f"fixture written to {tmp_path / 'repro_seed0_spec.json'}" in serial
        assert serial.endswith("FAIL: 1/1 seed(s) diverged\n")
        assert run_cli(*argv, "--farm", "--no-cache") == (1, serial)

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
        # Out of the kind's declared domain: refused while parsing.
        with pytest.raises(SystemExit) as exc:
            main(
                ["sweep", "--threads", "2:4", "--no-cache", "--fault", "xbar_drop=2"],
                out=io.StringIO(),
            )
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "argument --fault" in err and "'rate'" in err and "got 2" in err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["kernel", "mutex", "--threads", "4", "--fault", "xbar_drop=abc"],
             ("'rate'", "'abc'")),
            (["kernel", "mutex", "--threads", "4",
              "--fault", "dram_bitflip=0.01,uncorrectable=zz"],
             ("'uncorrectable'", "'zz'")),
            (["kernel", "mutex", "--threads", "4",
              "--fault", "vault_stall=0.01,duration=1.5"],
             ("'duration'", "1.5")),
            (["sweep", "--threads", "2:4", "--jobs", "2", "--no-cache",
              "--fault", "xbar_drop=abc"],
             ("'rate'", "'abc'")),
        ],
        ids=["non-numeric-rate", "non-numeric-param", "non-integral", "sweep-jobs"],
    )
    def test_fault_parameter_refused_at_parse(self, argv, named, capsys, monkeypatch):
        def no_pool(self, specs):
            raise AssertionError("the sweep ran before the refusal")

        monkeypatch.setattr(SweepExecutor, "run", no_pool)
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            main(argv, out=out)
        std = capsys.readouterr()
        assert exc.value.code == 2
        assert out.getvalue() == std.out == ""
        assert "Traceback" not in std.err and "argument --fault" in std.err
        assert all(name in std.err for name in named)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "replay"],
            ["fuzz", "--trace"],
            ["trace", "convert", "-o", "unwritten.jsonl"],
            ["analyze"],
        ],
        ids=["trace-replay", "fuzz-trace", "trace-convert", "analyze"],
    )
    def test_missing_trace_file(self, argv, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        rc, _ = run_cli(*argv, str(missing))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("hmcsim-repro: error:") and str(missing) in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("count", ["0", "2049"])
    def test_fuzz_count_out_of_range(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--count", count], out=io.StringIO())
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--count" in err and "1..2048" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seeds", "0-x"],
            ["--seeds", "0"],
            ["--profile", "nope"],
            ["--profile", "trace"],
            ["--farm", "--trace", "<trace>"],
        ],
        ids=["seed-range", "no-seeds", "profile", "trace-profile", "farm-trace"],
    )
    def test_fuzz_refusals_exit_2(self, argv, tmp_path, capsys):
        # Exit 1 means "seeds diverged": refused input must not say so.
        trace = str(tmp_path / "run.jsonl")
        run_cli("trace", "record", "mutex", "--threads", "2", "-o", trace)
        capsys.readouterr()
        out = io.StringIO()
        try:
            rc = main(["fuzz", *(trace if a == "<trace>" else a for a in argv)], out=out)
        except SystemExit as exc:
            rc = exc.code
        std = capsys.readouterr()
        assert rc == 2
        assert out.getvalue() == std.out == ""
        assert "Traceback" not in std.err
        assert std.err.splitlines()[-1].startswith("hmcsim-repro")

    @pytest.mark.parametrize("spec", ["{bad", "[1, 2]"], ids=["not-json", "not-object"])
    def test_client_submit_spec_must_be_a_json_object(self, spec, tmp_path, capsys):
        # Refused before any connection: no server is listening here.
        argv = ["client", "--socket", str(tmp_path / "none.sock"), "submit", spec]
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "JSON object" in err and "Traceback" not in err

    def test_client_on_an_unreachable_socket(self, tmp_path, capsys):
        missing = tmp_path / "missing.sock"
        rc, out = run_cli("client", "--socket", str(missing), "stat")
        assert rc == 1
        assert str(missing) in out and out.count("\n") == 1
        assert capsys.readouterr().err == ""


class TestFrontendSeam:
    """The workload subcommands are generated views of the frontends:
    each flag names a frontend parameter or one of ``CLI_ONLY``."""

    @staticmethod
    def _subparser(*path):
        parser = build_parser()
        for name in path:
            action = next(
                a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)
            )
            parser = action.choices[name]
        return parser

    def test_every_workload_formats_its_stats(self):
        from repro.workloads.base import WorkloadFrontend
        from repro.workloads.registry import WORKLOADS

        for key in WORKLOADS.keys():
            frontend = WORKLOADS.get(key)
            assert type(frontend).format_stats is not WorkloadFrontend.format_stats, key

    @pytest.mark.parametrize(
        "path",
        [["kernel"], ["chase"], ["graph"], ["trace", "record"], ["trace", "replay"]],
        ids=" ".join,
    )
    def test_every_flag_reaches_its_frontend(self, path):
        from repro.cli import CLI_ONLY, _Workloads
        from repro.workloads.registry import WORKLOADS

        sub = self._subparser(*path)
        key = sub.get_default("key")
        selectors = [a for a in sub._actions if isinstance(a.choices, _Workloads)]
        keys = [
            key.format_map({a.dest: name}) for a in selectors for name in a.choices
        ] or [key]
        params = set().union(*(WORKLOADS.get(k).default_params() for k in keys))
        for action in sub._actions:
            if action.dest != "help" and action not in selectors:
                assert action.dest in params | CLI_ONLY, action.dest
