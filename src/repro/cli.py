"""Command-line interface: run the paper's experiments from a shell.

Installed as ``hmcsim-repro`` (also ``python -m repro``); ``--help``
lists the subcommands and ``info`` the configurations, pipeline
components (``--component seam=impl``), fault kinds (``--fault
kind=param``) and workloads.  This module parses argv, dispatches to
the layer that owns the work, and prints.  The workload subcommands
(``kernel``, ``chase``, ``graph``, ``trace record|replay``) are views
of their frontends, run by one handler: each flag's dest is a frontend
parameter or one of :data:`CLI_ONLY`.

Exit codes: 0 when the run passed; 1 when it ran and a check failed (a
divergent fuzz seed, a trace-baseline mismatch, an unverified run, a
failed served submission); 2 when the input was refused, with an
``error:`` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterator, List, Optional, Sequence, Tuple

# Each handler imports the layer it runs: an invocation compiles and
# executes only what it uses (tests/test_import_budget.py).
from repro.errors import ComponentError, FaultError, HMCConfigError, WorkloadError
from repro.faults.plan import DEFAULT_FAULT_SEED, FaultPlan, FaultSpec
from repro.hmc.config import CONFIGS, HMCConfig, resolve_config, validate_selection

__all__ = ["main", "build_parser"]


def _parse_threads(spec: str) -> List[int]:
    """Parse a thread-axis spec: "N", "lo:hi", or "lo:hi:step"."""
    parts = spec.split(":")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad thread spec {spec!r}") from None
    if len(nums) == 1:
        return nums
    if len(nums) == 2:
        lo, hi = nums
        step = 1
    elif len(nums) == 3:
        lo, hi, step = nums
    else:
        raise argparse.ArgumentTypeError(f"bad thread spec {spec!r}")
    if lo < 1 or hi < lo or step < 1:
        raise argparse.ArgumentTypeError(f"bad thread range {spec!r}")
    counts = list(range(lo, hi + 1, step))
    if counts[-1] != hi:
        counts.append(hi)
    return counts


def _parse_component(spec: str) -> Tuple[str, str]:
    """Parse a ``--component`` spec: ``seam=impl``, e.g.
    ``vault_scheduler=round_robin``."""
    seam, sep, key = spec.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"bad component spec {spec!r} (expected seam=impl)"
        )
    try:
        validate_selection(seam, key)
    except HMCConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seam, key


def _request_count(text: str) -> int:
    """A ``fuzz --count``: requests per trace, each on a tag of its own."""
    from repro.hmc.packet import MAX_TAG

    count = _integer(text)
    if not 1 <= count <= MAX_TAG + 1:
        raise argparse.ArgumentTypeError(
            f"request count {count} outside 1..{MAX_TAG + 1}"
        )
    return count


def _integer(text: str) -> int:
    """An integer flag value, in any base Python spells (``0x2a``)."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None


def _seed_spec(text: str) -> range | int:
    """A ``fuzz --seeds`` value: a count of seeds from ``--seed`` (an
    int), or an inclusive ``LO-HI`` range."""
    lo, dash, hi = text.lstrip("-").partition("-")
    try:
        seeds = range(int(lo, 0), int(hi, 0) + 1) if dash else int(text, 0)
    except ValueError:
        seeds = 0
    if not seeds or (not dash and seeds < 1):
        raise argparse.ArgumentTypeError(
            f"expected a count >= 1 or a non-empty LO-HI range, got {text!r}"
        )
    return seeds


def _fuzz_profile(text: str) -> str:
    """A ``fuzz --profile``: a traffic profile, ``all`` or ``trace``."""
    from repro.oracle.trafficgen import PROFILES

    if text not in ("all", "trace", *PROFILES):
        raise argparse.ArgumentTypeError(
            f"unknown profile {text!r} "
            f"(have: all, trace, {', '.join(sorted(PROFILES))})"
        )
    return text


def _json_object(text: str) -> dict:
    """A ``client submit`` spec: a JSON object."""
    try:
        spec = json.loads(text)
    except ValueError:
        spec = None
    if not isinstance(spec, dict):
        raise argparse.ArgumentTypeError(f"expected a JSON object, got {text!r}")
    return spec


#: ``--config`` spellings: each named configuration by its link count.
_LINKS = [name.split("_")[0] for name in CONFIGS]


def _parse_fault(spec: str) -> FaultSpec:
    """Parse a ``--fault`` spec: ``kind=value[,name=value...]``."""
    try:
        return FaultSpec.parse(spec)
    except FaultError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault", action="append", type=_parse_fault, default=None,
        metavar="KIND=PARAM", dest="faults",
        help="inject a deterministic fault, e.g. xbar_drop=0.004 or "
        "vault_stall=2e-3,duration=4 (repeatable; see 'info' for kinds)",
    )
    p.add_argument(
        "--fault-seed", type=_integer, default=DEFAULT_FAULT_SEED,
        metavar="N", help="seed every fault draw derives from "
        f"(default {DEFAULT_FAULT_SEED:#x}; same seed = same faults, "
        "serial or parallel)",
    )


def _fault_plan(args) -> Optional[FaultPlan]:
    """The FaultPlan described by the ``--fault``/``--fault-seed`` flags."""
    if not getattr(args, "faults", None):
        return None
    return FaultPlan(specs=tuple(args.faults), seed=args.fault_seed)


def _add_component_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--component", action="append", type=_parse_component, default=None,
        metavar="SEAM=IMPL", dest="components",
        help="swap a pipeline stage, e.g. vault_scheduler=round_robin "
        "(repeatable)",
    )
    p.add_argument(
        "--engine", choices=["scalar", "vector"], default=None,
        help="datapath engine: 'vector' is shorthand for "
        "--component xbar=vector (numpy flight-table batch engine, "
        "requires the [vector] extra); 'scalar' is the default object "
        "datapath",
    )


def _merge_engine(args) -> None:
    """Fold ``--engine vector`` into the ``--component`` override list.

    An explicit ``--component xbar=...`` wins over the convenience
    flag, so ``--engine vector --component xbar=queued`` is the queued
    crossbar, not a conflict.
    """
    if getattr(args, "engine", None) != "vector":
        return
    components = list(args.components or [])
    if not any(seam == "xbar" for seam, _key in components):
        components.append(("xbar", "vector"))
    args.components = components


def _add_jobs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep points (0 = all cores; "
        "results are bit-identical for any value)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent sweep result cache and recompute",
    )


def _sweep_kwargs(args) -> dict:
    """run_mutex_sweep keyword arguments from the jobs/cache/fault flags."""
    from repro.parallel.progress import make_progress

    kwargs: dict = {"jobs": args.jobs, "use_cache": not args.no_cache}
    if args.jobs != 1:
        kwargs["progress"] = make_progress(sys.stderr)
    plan = _fault_plan(args)
    if plan is not None:
        kwargs["fault_plan"] = plan
    return kwargs


class _Workloads:
    """Registry-backed ``choices`` for a positional: a name is checked by
    resolving it alone (``has`` plus the attribute filter), and only
    listing the names (help, usage, a refusal) loads every frontend.
    Assign it after ``add_argument``, whose metavar check lists them."""

    def __init__(self, prefix: str = "", **where: Any) -> None:
        self.prefix = prefix
        self.where = where

    def __contains__(self, name: object) -> bool:
        from repro.workloads.registry import WORKLOADS

        key = f"{self.prefix}{name}"
        return WORKLOADS.has(key) and all(
            getattr(WORKLOADS.get(key), attr, None) == value
            for attr, value in self.where.items()
        )

    def __iter__(self) -> Iterator[str]:
        from repro.workloads.registry import WORKLOADS

        return (key[len(self.prefix):] for key in WORKLOADS.keys(**self.where))


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="hmcsim-repro",
        description="HMC-Sim 2.0 reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.set_defaults(run=_cmd_table)
    p_table.add_argument("number", choices=["1", "2", "5", "6"])
    p_table.add_argument(
        "--threads", type=_parse_threads, default=None,
        help="thread axis for table 6 (default 2:100)",
    )
    _add_component_arg(p_table)
    _add_jobs_args(p_table)

    p_sweep = sub.add_parser("sweep", help="run the Figures 5-7 thread sweep")
    p_sweep.set_defaults(run=_cmd_sweep)
    p_sweep.add_argument(
        "--threads", type=_parse_threads, default=_parse_threads("2:100"),
        help="thread axis, e.g. 2:100 or 2:100:7 (default 2:100)",
    )
    p_sweep.add_argument("--config", choices=_LINKS + ["both"], default="both")
    p_sweep.add_argument("--plot", action="store_true", help="render ASCII charts")
    p_sweep.add_argument("--csv", metavar="PATH", help="export the series as CSV")
    _add_component_arg(p_sweep)
    _add_jobs_args(p_sweep)
    _add_fault_args(p_sweep)

    p_kernel = _workload_parser(sub, "kernel", "{name}", "run one workload kernel")
    p_kernel.add_argument("name").choices = _Workloads(kind="kernel", cli_kernel=True)
    p_kernel.add_argument("--threads", type=int, default=16)
    p_kernel.add_argument("--config", choices=_LINKS, default="4link")
    p_kernel.add_argument(
        "--oracle-sample", type=int, default=None, metavar="N",
        dest="oracle_sample",
        help="shadow-execute roughly 1-in-N requests against the "
        "functional reference model and fail on any divergence "
        "(workloads that declare the 'oracle_sample' parameter; "
        "incompatible with --fault)",
    )
    _add_component_arg(p_kernel)
    _add_fault_args(p_kernel)

    p_trace = sub.add_parser("trace", help="record or replay a workload trace")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_record = _workload_parser(
        trace_sub, "record", "{workload}",
        "run a recordable workload, capturing its request stream",
    )
    p_record.add_argument("workload").choices = _Workloads(recordable=True)
    p_record.add_argument("--threads", type=int, default=16)
    p_record.add_argument("--config", choices=_LINKS, default="4link")
    p_record.add_argument(
        "-o", "--output", required=True, metavar="PATH",
        help="trace file to write (JSONL)",
    )
    p_replay = _workload_parser(
        trace_sub, "replay", "trace",
        "replay a trace; closed-loop replay checks the recorded "
        "per-thread cycle baseline",
    )
    p_replay.add_argument("path", metavar="trace_file")
    p_replay.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed: per-thread semantic re-execution; open: "
        "rate-driven traffic replay (default closed)",
    )
    p_replay.add_argument(
        "--rate", type=float, default=4.0,
        help="open-loop offered rate in requests/cycle (default 4.0)",
    )
    p_replay.add_argument(
        "--depth", type=int, default=None, metavar="N",
        help="open-loop in-flight target: gate injection on N outstanding "
        "requests instead of --rate (deep-queue regime)",
    )
    p_replay.add_argument(
        "--config", choices=_LINKS, default=None,
        help="override the trace header's configuration",
    )
    _add_component_arg(p_replay)
    p_convert = trace_sub.add_parser(
        "convert",
        help="convert rendered simulator Tracer output into a workload "
        "trace (lossy: open-loop replay only)",
    )
    p_convert.set_defaults(run=_cmd_convert)
    p_convert.add_argument("trace_file")
    p_convert.add_argument(
        "-o", "--output", required=True, metavar="PATH",
        help="workload trace file to write (JSONL)",
    )

    p_graph = _workload_parser(
        sub, "graph", "graph:{scenario}", "run a task-graph workload"
    )
    p_graph.add_argument("scenario").choices = _Workloads("graph:", kind="graph")
    p_graph.add_argument("--config", choices=_LINKS, default="4link")
    p_graph.add_argument(
        "--schedule", action="store_true",
        help="print the per-task (start, done) cycle schedule",
    )
    _add_component_arg(p_graph)

    p_open = sub.add_parser("openloop", help="open-loop latency vs offered load")
    p_open.set_defaults(run=_cmd_openloop)
    p_open.add_argument("--rate", type=float, default=8.0, help="requests/cycle")
    p_open.add_argument("--duration", type=int, default=256)
    p_open.add_argument(
        "--depth", type=int, default=None, metavar="N",
        help="in-flight target: gate injection on N outstanding requests "
        "instead of --rate (which then only sizes the stream)",
    )
    p_open.add_argument("--pattern", choices=["uniform", "stride"], default="uniform")
    p_open.add_argument("--config", choices=_LINKS, default="4link")
    _add_component_arg(p_open)

    p_chase = _workload_parser(sub, "chase", "chase", "pointer-chase latency kernel")
    p_chase.add_argument("--length", type=int, default=64)
    p_chase.add_argument("--scatter", action="store_true")
    p_chase.add_argument("--config", choices=_LINKS, default="4link")
    _add_component_arg(p_chase)

    p_analyze = sub.add_parser("analyze", help="analyze a trace file")
    p_analyze.set_defaults(run=_cmd_analyze)
    p_analyze.add_argument("trace", help="path to a trace file")
    p_analyze.add_argument(
        "--histogram", action="store_true", help="print the latency histogram"
    )
    p_analyze.add_argument(
        "--fault-timeline", action="store_true",
        help="render the injected-fault timeline from FAULT trace events",
    )

    p_fuzz = sub.add_parser(
        "fuzz", help="differential-fuzz the datapath against the oracle"
    )
    p_fuzz.set_defaults(run=_cmd_fuzz)
    p_fuzz.add_argument(
        "--seed", type=_integer, default=0, metavar="N",
        help="first seed (default 0)",
    )
    p_fuzz.add_argument(
        "--seeds", type=_seed_spec, default="1", metavar="N|LO-HI",
        help="number of consecutive seeds starting at --seed, or an "
        "inclusive LO-HI seed range (default 1)",
    )
    p_fuzz.add_argument(
        "--farm", action="store_true",
        help="fan the seeds across the parallel sweep pool with "
        "fingerprint-cached per-seed results; divergent seeds are "
        "shrunk and written as fixtures under tests/oracle/repros/ "
        "(override with --emit-repro)",
    )
    p_fuzz.add_argument(
        "--count", type=_request_count, default=256, metavar="N",
        help="requests per trace (default 256)",
    )
    p_fuzz.add_argument(
        "--profile", type=_fuzz_profile, default="all", metavar="PROFILE",
        help="traffic profile, or 'all' to rotate "
        "mixed/cmc/spec/faulty/deep_queue by seed (default all); "
        "'trace' replays a recorded workload trace (requires --trace)",
    )
    p_fuzz.add_argument(
        "--trace", metavar="PATH", dest="trace_path", default=None,
        help="workload trace to replay through the differential runner "
        "(sets the profile to 'trace')",
    )
    p_fuzz.add_argument("--config", choices=list(CONFIGS), default="4link_4gb")
    p_fuzz.add_argument(
        "--shrink", action="store_true",
        help="delta-debug each failing trace to a minimal reproducer",
    )
    p_fuzz.add_argument(
        "--emit-repro", metavar="DIR", dest="emit_repro",
        help="write failing traces (shrunk, with --shrink) as JSON "
        "fixtures under DIR",
    )
    _add_component_arg(p_fuzz)
    _add_jobs_args(p_fuzz)

    p_verify = sub.add_parser("verify", help="verify the paper's published numbers")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument(
        "--threads", type=_parse_threads, default=None,
        help="thread axis for the sweep anchors (default 2:100)",
    )
    _add_jobs_args(p_verify)

    p_serve = sub.add_parser(
        "serve", help="run the simulation service (warm sessions on a socket)"
    )
    p_serve.set_defaults(run=_cmd_serve)
    p_serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="Unix socket path to listen on",
    )
    p_serve.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="session directories (journals, checkpoints, results); "
        "a restarted server resumes every session found here",
    )
    p_serve.add_argument(
        "--max-sessions", type=int, default=8, metavar="N",
        help="admission cap on concurrently live sessions (default 8)",
    )
    p_serve.add_argument(
        "--max-requests", type=int, default=256, metavar="N",
        help="per-session submission quota (default 256)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="bounded per-session queue; full = submits wait (default 16)",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="fence (drain+checkpoint) every N-th submission (default 1)",
    )
    p_serve.add_argument(
        "--sweep-jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep submissions (0 = all cores)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sweep result cache root (default: the shared cache)",
    )

    p_client = sub.add_parser("client", help="talk to a running simulation service")
    p_client.set_defaults(run=_cmd_client)
    p_client.add_argument(
        "--socket", required=True, metavar="PATH",
        help="Unix socket path of the server",
    )
    client_sub = p_client.add_subparsers(dest="client_command", required=True)
    p_csubmit = client_sub.add_parser(
        "submit", help="create-or-reuse a session and submit work"
    )
    p_csubmit.add_argument(
        "--session", default=None, metavar="NAME",
        help="session to submit to (created if it does not exist)",
    )
    p_csubmit.add_argument(
        "--config", choices=list(CONFIGS), default="4link_4gb",
        help="configuration for a newly created session",
    )
    p_csubmit.add_argument(
        "--kind", choices=["workload", "raw", "sweep"], default="workload",
        help="submission kind (default workload)",
    )
    p_csubmit.add_argument(
        "spec", type=_json_object, help="submission spec as JSON, e.g. "
        '\'{"workload": "mutex", "params": {"threads": 8}}\'',
    )
    p_csubmit.add_argument(
        "--no-wait", action="store_true",
        help="return after the ack instead of waiting for the result",
    )
    _add_component_arg(p_csubmit)
    p_cattach = client_sub.add_parser(
        "attach", help="stream a session's results and telemetry"
    )
    p_cattach.add_argument("session", help="session name")
    p_cattach.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="stop after N live stream messages (default: until EOF)",
    )
    p_cstat = client_sub.add_parser("stat", help="show server or session telemetry")
    p_cstat.add_argument("session", nargs="?", default=None)

    sub.add_parser(
        "info", help="show command space and configurations"
    ).set_defaults(run=_cmd_info)
    return parser


def _cmd_table(args, out) -> int:
    from repro.analysis import tables as _tables

    if args.number == "1":
        out.write(_tables.render_table1() + "\n")
    elif args.number == "2":
        out.write(_tables.render_table2() + "\n")
    elif args.number == "5":
        from repro.cmc_ops.mutex import load_mutex_ops
        from repro.hmc.sim import HMCSim

        sim = HMCSim(resolve_config("4link", args.components))
        load_mutex_ops(sim)
        out.write(_tables.render_table5(sim.cmc) + "\n")
    else:
        from repro.analysis.sweep import run_mutex_sweep

        counts = args.threads or _parse_threads("2:100")
        sweeps = [
            run_mutex_sweep(
                resolve_config(name, args.components), counts,
                **_sweep_kwargs(args),
            )
            for name in CONFIGS
        ]
        out.write(_tables.render_table6(sweeps) + "\n")
    return 0


def _cmd_sweep(args, out) -> int:
    from repro.analysis import tables as _tables
    from repro.analysis.sweep import run_mutex_sweep

    kwargs = _sweep_kwargs(args)
    names = CONFIGS if args.config == "both" else [args.config]
    sweeps = [
        run_mutex_sweep(resolve_config(name, args.components), args.threads, **kwargs)
        for name in names
    ]
    plan = kwargs.get("fault_plan")
    if plan is not None:
        for sweep in sweeps:
            injected = sum(r.faults_injected for r in sweep.runs)
            retrans = sum(r.retransmits for r in sweep.runs)
            out.write(
                f"{sweep.config_name} fault plan [{plan.describe()}]: "
                f"{injected} faults injected, {retrans} retransmits\n"
            )
        out.write("\n")
    for title, attr in [
        ("Figure 5: Minimum Lock Cycles", "min_cycles"),
        ("Figure 6: Maximum Lock Cycles", "max_cycles"),
        ("Figure 7: Average Lock Cycles", "avg_cycles"),
    ]:
        if args.plot:
            from repro.analysis.plot import plot_sweeps

            out.write(plot_sweeps(title, sweeps, attr) + "\n\n")
        else:
            out.write(_tables.render_figure_series(title, sweeps, attr) + "\n\n")
    out.write(_tables.render_table6(sweeps) + "\n")
    if args.csv:
        from repro.analysis.export import sweep_to_csv, write_csv

        path = write_csv(args.csv, sweep_to_csv(sweeps))
        out.write(f"series written to {path}\n")
    return 0


#: Workload-subcommand dests that are not frontend parameters: the
#: context a run is given and how it is printed.
CLI_ONLY = frozenset(
    {"config", "components", "engine", "faults", "fault_seed", "schedule", "output"}
)
#: ... and the dests argparse dispatches on (the frontend's name).
_DISPATCH = frozenset(
    {"run", "key", "command", "trace_command", "name", "workload", "scenario"}
)


def _workload_parser(sub, command: str, key: str, summary: str):
    """A subcommand run by the frontend ``key`` names (a format string
    over the namespace, e.g. ``graph:{scenario}``)."""
    p = sub.add_parser(command, help=summary)
    p.set_defaults(
        run=_cmd_workload, key=key, components=None, output=None, schedule=False
    )
    return p


def _cmd_workload(args, out) -> int:
    """Run a frontend on its flags: a dest the frontend names is a
    parameter, and so is any other flag given (for it to refuse)."""
    from repro.workloads.registry import WORKLOADS

    frontend = WORKLOADS.get(args.key.format_map(vars(args)))
    defaults = frontend.default_params()
    params = {
        k: v for k, v in vars(args).items()
        if k in defaults or (v is not None and k not in CLI_ONLY and k not in _DISPATCH)
    }
    name = args.config or frontend.default_config(params)
    cfg = resolve_config(name, args.components) if name else None
    plan = _fault_plan(args)
    passed = True
    for variant in frontend.cli_variants(params):
        if args.output is None:
            s = frontend.run(cfg, variant, fault_plan=plan)
        else:
            from repro.workloads.replay import record_workload

            s, trace = record_workload(frontend.name, cfg, variant, fault_plan=plan)
            path = trace.dump(args.output)
        out.write(frontend.format_stats(s, fault_plan=plan) + "\n")
        if args.schedule:
            for (start, done), task in sorted((v, k) for k, v in s.schedule.items()):
                out.write(f"  {task}: cycles {start}..{done}\n")
        if args.output is not None:
            out.write(
                f"recorded {len(trace.requests)} request(s) from "
                f"{len(trace.threads)} thread(s) to {path} "
                f"(digest {trace.digest()})\n"
            )
        passed = passed and frontend.passed(s)
    return 0 if passed else 1


def _cmd_openloop(args, out) -> int:
    from repro.host.openloop import run_open_loop

    s = run_open_loop(
        resolve_config(args.config, args.components), offered_rate=args.rate,
        duration=args.duration, pattern=args.pattern, depth=args.depth,
    )
    out.write(s.summary() + "\n")
    return 0


def _cmd_convert(args, out) -> int:
    from repro.workloads.tracefmt import read_trace_file, trace_from_tracer

    trace, skipped = trace_from_tracer(read_trace_file(args.trace_file))
    path = trace.dump(args.output)
    out.write(
        f"converted {len(trace.requests)} request(s) to {path}"
        + (f" ({skipped} unresolvable event(s) skipped)" if skipped else "")
        + "\n"
    )
    return 0


def _cmd_analyze(args, out) -> int:
    from repro.analysis.traceview import analyze_trace
    from repro.workloads.tracefmt import read_trace_file

    a = analyze_trace(read_trace_file(args.trace))
    out.write(a.summary() + "\n")
    if args.histogram and a.latencies:
        out.write("latency histogram (4-cycle buckets):\n")
        for bucket, count in a.latency_histogram().items():
            out.write(f"  {bucket:>8}: {count}\n")
    if args.fault_timeline:
        out.write("fault timeline (64-cycle windows):\n")
        out.write(a.render_fault_timeline() + "\n")
    return 0


def _cmd_info(args, out) -> int:
    from repro.faults.registry import FAULTS
    from repro.hmc.commands import CMC_CODES, DEFINED_CODES
    from repro.hmc.components import COMPONENTS
    from repro.workloads.registry import WORKLOADS

    out.write("HMC-Sim 2.0 reproduction\n")
    out.write(
        f"command space: {len(DEFINED_CODES)} specification commands, "
        f"{len(CMC_CODES)} CMC-eligible codes\n"
    )
    for cfg in (make() for make in CONFIGS.values()):
        out.write(
            f"{cfg.describe()}: {cfg.num_vaults} vaults x {cfg.num_banks} banks, "
            f"queue depth {cfg.queue_depth}, xbar depth {cfg.xbar_depth}, "
            f"block {cfg.bsize}B\n"
        )
    out.write(f"CMC codes: {', '.join(str(c) for c in CMC_CODES[:12])}, ...\n")
    defaults = HMCConfig.cfg_4link_4gb()
    out.write("pipeline components (--component seam=impl, * = default):\n")
    for seam, registry in COMPONENTS.items():
        keys = ", ".join(
            f"{k}*" if k == getattr(defaults, seam) else k for k in registry.keys()
        )
        out.write(f"  {seam}: {keys}\n")
    out.write("fault kinds (--fault kind=param, primary param shown):\n")
    for key, primary, doc in FAULTS.describe():
        out.write(f"  {key} ({primary}): {doc}\n")
    out.write("workloads (run via kernel/chase/trace/graph subcommands):\n")
    for name, kind, desc in WORKLOADS.describe():
        out.write(f"  {name} [{kind}]: {desc}\n")
    return 0


#: ``fuzz --profile all`` rotation: every 5 consecutive seeds cover the
#: full command mix, CMC-heavy traffic, the spec-only mix, a run under
#: an oracle-exact fault plan, and the deep-queue burst shape.
_FUZZ_ROTATION = ("mixed", "cmc", "spec", "faulty", "deep_queue")


def _cmd_fuzz(args, out) -> int:
    from pathlib import Path

    from repro.oracle import (
        emit_repro,
        farm_task_spec,
        format_seed_line,
        generate_trace,
        result_from_diff,
        run_trace,
        shrink_trace,
    )
    from repro.parallel.cache import SweepCache
    from repro.parallel.pool import SweepExecutor
    from repro.parallel.progress import make_progress

    if args.trace_path is None and args.profile == "trace":
        raise WorkloadError(
            "the 'trace' profile replays a recorded workload trace; "
            "pass one with --trace PATH"
        )
    if args.farm and args.trace_path is not None:
        raise WorkloadError("--farm generates its own traces; it cannot replay --trace")
    seeds = args.seeds
    if not isinstance(seeds, range):
        seeds = range(args.seed, args.seed + seeds)
    overrides = dict(args.components) if args.components else None

    def runner(t):
        return run_trace(t, config_overrides=overrides)

    if args.trace_path is None:
        def trace_for(seed: int, profile: str):
            return generate_trace(
                seed, profile=profile, count=args.count, config_name=args.config
            )

        rotation = _FUZZ_ROTATION if args.profile == "all" else (args.profile,)
        specs = [
            farm_task_spec(
                seed, profile=rotation[seed % len(rotation)], count=args.count,
                config_name=args.config, overrides=overrides,
            )
            for seed in seeds
        ]
        results = SweepExecutor(
            args.jobs,
            cache=SweepCache() if args.farm and not args.no_cache else None,
            progress=make_progress(sys.stderr) if args.jobs != 1 else None,
        ).run(specs)
    else:
        from repro.oracle.workload_traces import trace_from_workload
        from repro.workloads.tracefmt import WorkloadTrace

        wtrace = WorkloadTrace.load(args.trace_path)

        def trace_for(seed: int, profile: str):
            return trace_from_workload(wtrace, seed=seed)

        results = [result_from_diff(runner(trace_for(s, "trace"))) for s in seeds]
    # The self-growing corpus: under --farm, divergent seeds are shrunk
    # and land in the regression-fixture directory by default.
    repro_dir = args.emit_repro or ("tests/oracle/repros" if args.farm else None)
    failures = 0
    for r in results:
        out.write(format_seed_line(r) + "\n")
        if r.ok or r.skipped is not None:
            continue
        failures += 1
        out.writelines(m + "\n" for m in r.mismatches)
        trace = trace_for(r.seed, r.profile)
        if args.shrink or args.farm:
            trace = shrink_trace(trace, runner=runner)
            out.write(
                f"  shrunk to {len(trace.requests)} request(s), "
                f"{len(trace.preloads)} preload(s):\n"
            )
            out.writelines(f"    {req.describe()}\n" for req in trace.requests)
        if repro_dir:
            Path(repro_dir).mkdir(parents=True, exist_ok=True)
            path = Path(repro_dir) / f"repro_seed{r.seed}_{r.profile}.json"
            out.write(f"  fixture written to {emit_repro(trace, path)}\n")
    if failures:
        out.write(f"FAIL: {failures}/{len(seeds)} seed(s) diverged\n")
        return 1
    skips = sum(r.skipped is not None for r in results)
    tail = f", {skips} skipped" if skips else ""
    out.write(f"OK: {len(seeds)} seed(s), no divergence{tail}\n")
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio

    from repro.serve.server import ServeConfig, SimServer

    server = SimServer(
        ServeConfig(
            socket_path=args.socket,
            state_dir=args.state_dir,
            max_sessions=args.max_sessions,
            max_requests_per_session=args.max_requests,
            queue_depth=args.queue_depth,
            checkpoint_every=args.checkpoint_every,
            sweep_jobs=args.sweep_jobs,
            cache_root=args.cache_dir,
        )
    )
    out.write(f"serving on {args.socket} (state in {args.state_dir})\n")
    out.flush()
    asyncio.run(server.run())
    out.write("drained; all live sessions checkpointed\n")
    return 0


def _client_submit(client, args, out) -> int:
    from repro.errors import ServeError
    from repro.serve import schemas

    spec = args.spec
    session = args.session
    if session is not None:
        try:
            client.stat(session)
        except ServeError as exc:
            if exc.code != "unknown_session":
                raise
            session = None
    if session is None:
        components = dict(args.components or [])
        session = client.create(
            args.config,
            components=components or None,
            session=args.session,
        )
    reply = client.submit(session, args.kind, spec, wait=not args.no_wait)
    if args.no_wait:
        out.write(
            f"session {session} submission {reply['submission']} queued\n"
        )
        return 0
    fields = ("submission", "status", "payload", "error")
    doc = {"session": session, **{k: reply.get(k) for k in fields}}
    out.write(schemas.canonical_json(doc) + "\n")
    return 0 if reply["status"] == "done" else 1


def _client_attach(client, args, out) -> int:
    from repro.serve import schemas

    reply = client.attach(args.session, replay=True)
    out.write(schemas.canonical_json(reply["snapshot"]) + "\n")
    for msg in reply.get("history", []):
        out.write(schemas.canonical_json(msg) + "\n")
    try:
        for msg in client.events(max_events=args.max_events):
            out.write(schemas.canonical_json(msg) + "\n")
            out.flush()
    except Exception:
        # Server drained or the socket timed out: the stream is over.
        pass
    return 0


def _cmd_client(args, out) -> int:
    from repro.errors import ServeError
    from repro.serve import schemas
    from repro.serve.client import ServeClient

    try:
        client = ServeClient(args.socket)
    except OSError as exc:
        out.write(f"cannot reach a server at {args.socket}: {exc.strerror or exc}\n")
        return 1
    try:
        with client:
            if args.client_command == "submit":
                return _client_submit(client, args, out)
            if args.client_command == "attach":
                return _client_attach(client, args, out)
            reply = client.stat(args.session)
            doc = {k: v for k, v in reply.items() if k not in ("type", "id")}
            out.write(schemas.canonical_json(doc) + "\n")
            return 0
    except ServeError as exc:
        # Structured refusal: machine code first so scripts can match it.
        out.write(f"error {exc.code}: {exc}\n")
        return 1


def _cmd_verify(args, out) -> int:
    from repro.analysis.verify import render_verification_report, verify_all

    anchors = verify_all(
        thread_counts=args.threads,
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    out.write(render_verification_report(anchors) + "\n")
    return 0 if all(a.passed for a in anchors) else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    _merge_engine(args)
    try:
        return args.run(args, out)
    except (ComponentError, FaultError, HMCConfigError, WorkloadError) as exc:
        # Refused input fails with one clear line, not a traceback: a
        # component whose factory cannot run (xbar='vector' without
        # numpy), a fault plan an injector rejects, a config name or
        # selection nothing registers, a workload refusing its
        # parameters or mode (--threads 0, --fault on a kernel without
        # fault support, --oracle-sample under --fault).
        sys.stderr.write(f"hmcsim-repro: error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
