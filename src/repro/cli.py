"""Command-line interface: run the paper's experiments from a shell.

Installed as ``hmcsim-repro`` (also ``python -m repro``):

* ``hmcsim-repro table 1|2|5|6`` — regenerate a paper table.
* ``hmcsim-repro sweep --threads 2:100 --plot --csv out.csv`` — run the
  Figures 5-7 sweep, render ASCII charts, export CSV.
* ``hmcsim-repro kernel mutex|ticket|...`` — run one workload kernel
  (resolved through the workload registry; ``info`` lists them all).
* ``hmcsim-repro trace record|replay|convert`` — capture a workload
  run as a versioned JSONL trace and replay it (see
  ``docs/WORKLOADS.md``).
* ``hmcsim-repro graph counter|pipeline|kvstore`` — run a task-graph
  workload.
* ``hmcsim-repro fuzz --seeds 64 --shrink`` — differential-fuzz the
  datapath against the functional oracle (see ``docs/CORRECTNESS.md``);
  ``--trace run.jsonl`` replays a recorded workload trace through the
  differential runner instead of generated traffic.
* ``hmcsim-repro info`` — show the command space and configurations.

Experiment commands accept ``--component seam=impl`` (repeatable) to
swap a pipeline stage, e.g. ``--component xbar=ideal --component
vault_scheduler=round_robin``.  ``info`` lists the registered
implementations per seam.

``sweep`` and ``kernel mutex`` additionally accept ``--fault
kind=param`` (repeatable) and ``--fault-seed N`` to run under a
deterministic fault plan, e.g. ``--fault xbar_drop=0.004 --fault
vault_stall=2e-3,duration=4``.  ``info`` lists the registered fault
kinds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from repro.analysis import tables as _tables
from repro.analysis.export import sweep_to_csv, write_csv
from repro.analysis.plot import plot_sweeps
from repro.analysis.sweep import run_mutex_sweep
from repro.errors import ComponentError, FaultError, HMCConfigError, WorkloadError
from repro.faults.plan import DEFAULT_FAULT_SEED, FaultPlan, FaultSpec
from repro.faults.registry import FAULTS
from repro.hmc.commands import CMC_CODES, DEFINED_CODES
from repro.hmc.components import COMPONENTS
from repro.hmc.config import CONFIGS, HMCConfig, resolve_config, validate_selection
from repro.parallel.progress import make_progress
from repro.workloads.registry import WORKLOADS

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
    """Parse a ``--component`` spec: ``seam=impl``, e.g. ``xbar=ideal``."""
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


def _integer(text: str) -> int:
    """An integer flag value, in any base Python spells (``0x2a``)."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None


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
        help="swap a pipeline stage, e.g. xbar=ideal (repeatable)",
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
    flag, so ``--engine vector --component xbar=ideal`` is an ideal
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
    kwargs: dict = {"jobs": args.jobs, "use_cache": not args.no_cache}
    if args.jobs != 1:
        kwargs["progress"] = make_progress(sys.stderr)
    plan = _fault_plan(args)
    if plan is not None:
        kwargs["fault_plan"] = plan
    return kwargs


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
    p_sweep.add_argument(
        "--config", choices=_LINKS + ["both"], default="both"
    )
    p_sweep.add_argument("--plot", action="store_true", help="render ASCII charts")
    p_sweep.add_argument("--csv", metavar="PATH", help="export the series as CSV")
    _add_component_arg(p_sweep)
    _add_jobs_args(p_sweep)
    _add_fault_args(p_sweep)

    p_kernel = sub.add_parser("kernel", help="run one workload kernel")
    p_kernel.set_defaults(run=_cmd_kernel)
    p_kernel.add_argument(
        "name", choices=WORKLOADS.keys(kind="kernel", cli_kernel=True)
    )
    p_kernel.add_argument("--threads", type=int, default=16)
    p_kernel.add_argument(
        "--config", choices=_LINKS, default="4link"
    )
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

    p_trace = sub.add_parser(
        "trace", help="record or replay a workload trace"
    )
    p_trace.set_defaults(run=_cmd_trace)
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_record = trace_sub.add_parser(
        "record",
        help="run a recordable workload, capturing its request stream",
    )
    p_record.add_argument("workload", choices=WORKLOADS.keys(recordable=True))
    p_record.add_argument("--threads", type=int, default=16)
    p_record.add_argument(
        "--config", choices=_LINKS, default="4link"
    )
    p_record.add_argument(
        "-o", "--output", required=True, metavar="PATH",
        help="trace file to write (JSONL)",
    )
    p_replay = trace_sub.add_parser(
        "replay",
        help="replay a trace; closed-loop replay checks the recorded "
        "per-thread cycle baseline",
    )
    p_replay.add_argument("trace_file")
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
    p_convert.add_argument("trace_file")
    p_convert.add_argument(
        "-o", "--output", required=True, metavar="PATH",
        help="workload trace file to write (JSONL)",
    )

    p_graph = sub.add_parser("graph", help="run a task-graph workload")
    p_graph.set_defaults(run=_cmd_graph)
    p_graph.add_argument(
        "scenario",
        choices=[name.split(":", 1)[1] for name in WORKLOADS.keys(kind="graph")],
    )
    p_graph.add_argument(
        "--config", choices=_LINKS, default="4link"
    )
    p_graph.add_argument(
        "--schedule", action="store_true",
        help="print the per-task (start, done) cycle schedule",
    )
    _add_component_arg(p_graph)

    p_open = sub.add_parser(
        "openloop", help="open-loop latency vs offered load"
    )
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

    p_chase = sub.add_parser("chase", help="pointer-chase latency kernel")
    p_chase.set_defaults(run=_cmd_chase)
    p_chase.add_argument("--length", type=int, default=64)
    p_chase.add_argument("--scatter", action="store_true")
    p_chase.add_argument("--timing", action="store_true", help="attach DRAM timing")
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
        "--seeds", default="1", metavar="N|LO-HI",
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
        "--count", type=int, default=256, metavar="N",
        help="requests per trace (default 256)",
    )
    p_fuzz.add_argument(
        "--profile", default="all",
        help="traffic profile, or 'all' to rotate "
        "mixed/cmc/spec/faulty/deep_queue by seed (default all); "
        "'trace' replays a recorded workload trace (requires --trace)",
    )
    p_fuzz.add_argument(
        "--trace", metavar="PATH", dest="trace_path", default=None,
        help="workload trace to replay through the differential runner "
        "(sets the profile to 'trace')",
    )
    p_fuzz.add_argument(
        "--config", choices=list(CONFIGS), default="4link_4gb"
    )
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

    p_verify = sub.add_parser(
        "verify", help="verify the paper's published numbers"
    )
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

    p_client = sub.add_parser(
        "client", help="talk to a running simulation service"
    )
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
        "spec", help="submission spec as JSON, e.g. "
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
    p_cstat = client_sub.add_parser(
        "stat", help="show server or session telemetry"
    )
    p_cstat.add_argument("session", nargs="?", default=None)

    sub.add_parser(
        "info", help="show command space and configurations"
    ).set_defaults(run=_cmd_info)
    return parser


def _cmd_table(args, out) -> int:
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
            out.write(plot_sweeps(title, sweeps, attr) + "\n\n")
        else:
            out.write(_tables.render_figure_series(title, sweeps, attr) + "\n\n")
    out.write(_tables.render_table6(sweeps) + "\n")
    if args.csv:
        path = write_csv(args.csv, sweep_to_csv(sweeps))
        out.write(f"series written to {path}\n")
    return 0


def _cmd_kernel(args, out) -> int:
    cfg = resolve_config(args.config, args.components)
    plan = _fault_plan(args)
    frontend = WORKLOADS.get(args.name)
    sample = getattr(args, "oracle_sample", None)
    for variant in frontend.cli_variants(args.threads):
        if sample is not None:
            variant = dict(variant, oracle_sample=sample)
        s = frontend.run(cfg, variant, fault_plan=plan)
        out.write(frontend.format_stats(s, fault_plan=plan) + "\n")
    return 0


def _cmd_openloop(args, out) -> int:
    from repro.host.openloop import run_open_loop

    cfg = resolve_config(args.config, args.components)
    s = run_open_loop(
        cfg,
        offered_rate=args.rate,
        duration=args.duration,
        pattern=args.pattern,
        depth=args.depth,
    )
    _write_openloop(s, out)
    return 0


def _cmd_chase(args, out) -> int:
    cfg = resolve_config(args.config, args.components)
    frontend = WORKLOADS.get("chase")
    s = frontend.run(
        cfg,
        {"length": args.length, "scatter": args.scatter, "timing": args.timing},
    )
    out.write(frontend.format_stats(s) + "\n")
    return 0


def _write_openloop(s, out) -> None:
    if s.depth is not None:
        offered = f"depth {s.depth}"
        knee = "queue-gated"
    else:
        offered = f"offered {s.offered_rate}/cyc"
        knee = "SATURATED" if s.saturated else "below the knee"
    out.write(
        f"{s.config_name} open-loop {s.pattern}: {offered}, "
        f"achieved {s.achieved_rate:.2f}/cyc, mean latency "
        f"{s.mean_latency:.1f} cyc, p99 {s.p99_latency} cyc, {knee}\n"
    )


def _cmd_trace(args, out) -> int:
    from repro.workloads.tracefmt import WorkloadTrace, trace_from_tracer

    if args.trace_command == "record":
        from repro.workloads.replay import record_workload

        cfg = resolve_config(args.config)
        frontend = WORKLOADS.get(args.workload)
        stats, trace = record_workload(
            args.workload, cfg, {"threads": args.threads}
        )
        path = trace.dump(args.output)
        out.write(frontend.format_stats(stats) + "\n")
        out.write(
            f"recorded {len(trace.requests)} request(s) from "
            f"{len(trace.threads)} thread(s) to {path} "
            f"(digest {trace.digest()})\n"
        )
        return 0

    if args.trace_command == "convert":
        from pathlib import Path

        source = Path(args.trace_file)
        if not source.exists():
            out.write(f"trace file {source} does not exist\n")
            return 1
        trace, skipped = trace_from_tracer(source.read_text())
        path = trace.dump(args.output)
        out.write(
            f"converted {len(trace.requests)} request(s) to {path}"
            + (f" ({skipped} unresolvable event(s) skipped)" if skipped else "")
            + "\n"
        )
        return 0

    # replay
    from repro.workloads.replay import replay_open_loop, replay_trace

    trace = WorkloadTrace.load(args.trace_file)
    cfg = None
    if args.config or args.components:
        cfg = resolve_config(args.config or trace.config_name, args.components)
    if args.mode == "open":
        s = replay_open_loop(trace, config=cfg, rate=args.rate, depth=args.depth)
        _write_openloop(s, out)
        return 0
    rs = replay_trace(trace, config=cfg)
    r = rs.result
    out.write(
        f"{rs.config_name} trace replay"
        + (f" [{rs.workload}]" if rs.workload else "")
        + f": {len(r.threads)} thread(s), {r.total_cycles} cycles, "
        f"min={r.min_cycle} max={r.max_cycle} avg={r.avg_cycle:.2f}\n"
    )
    match = rs.matches_baseline
    if match is None:
        out.write("no baseline in the trace header; nothing to check\n")
        return 0
    if match:
        out.write("baseline: per-thread cycles match the recording\n")
        return 0
    out.write("baseline MISMATCH:\n")
    for line in rs.mismatches():
        out.write(f"  {line}\n")
    return 1


def _cmd_graph(args, out) -> int:
    cfg = resolve_config(args.config, args.components)
    frontend = WORKLOADS.get(f"graph:{args.scenario}")
    s = frontend.run(cfg, {})
    out.write(
        f"{s.config_name} graph:{args.scenario}: {s.tasks} task(s) on "
        f"{s.threads} thread(s), {s.total_cycles} cycles, "
        f"verified={s.verified}\n"
    )
    if args.schedule:
        for name, (start, done) in sorted(
            s.schedule.items(), key=lambda kv: (kv[1], kv[0])
        ):
            out.write(f"  {name}: cycles {start}..{done}\n")
    return 0 if s.verified else 1


def _cmd_analyze(args, out) -> int:
    from pathlib import Path

    from repro.analysis.traceview import analyze_trace

    path = Path(args.trace)
    if not path.exists():
        out.write(f"trace file {path} does not exist\n")
        return 1
    a = analyze_trace(path.read_text())
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
    defaults = HMCConfig.cfg_4link_4gb().component_selection()
    out.write("pipeline components (--component seam=impl, * = default):\n")
    for seam, registry in COMPONENTS.items():
        keys = ", ".join(
            f"{k}*" if k == defaults[seam] else k for k in registry.keys()
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


def _parse_seed_list(args) -> List[int]:
    """``--seeds`` as a seed list: a count (from ``--seed``) or LO-HI."""
    spec = str(args.seeds)
    if "-" in spec.lstrip("-"):
        lo_s, _, hi_s = spec.lstrip("-").partition("-")
        try:
            lo, hi = int(lo_s, 0), int(hi_s, 0)
        except ValueError:
            raise SystemExit(
                f"hmcsim-repro: error: bad --seeds range {spec!r} "
                f"(expected LO-HI)"
            )
        if hi < lo:
            raise SystemExit(
                f"hmcsim-repro: error: empty --seeds range {spec!r}"
            )
        return list(range(lo, hi + 1))
    try:
        n = int(spec, 0)
    except ValueError:
        raise SystemExit(
            f"hmcsim-repro: error: bad --seeds value {spec!r} "
            f"(expected a count or LO-HI)"
        )
    if n < 1:
        raise SystemExit("hmcsim-repro: error: --seeds must be >= 1")
    return list(range(args.seed, args.seed + n))


def _cmd_fuzz(args, out) -> int:
    from pathlib import Path

    from repro.oracle import (
        PROFILES,
        emit_repro,
        farm_task_spec,
        format_seed_line,
        generate_trace,
        result_from_diff,
        run_farm,
        run_trace,
        shrink_trace,
    )

    if args.trace_path is None and args.profile == "trace":
        raise SystemExit(
            "hmcsim-repro: error: the 'trace' profile replays a recorded "
            "workload trace; pass one with --trace PATH"
        )
    if (
        args.trace_path is None
        and args.profile != "all"
        and args.profile not in PROFILES
    ):
        raise SystemExit(
            f"hmcsim-repro: error: unknown profile {args.profile!r} "
            f"(have: all, trace, {', '.join(sorted(PROFILES))})"
        )
    wtrace = None
    if args.trace_path is not None:
        from repro.workloads.tracefmt import WorkloadTrace

        wtrace = WorkloadTrace.load(args.trace_path)
    seeds = _parse_seed_list(args)
    overrides = dict(args.components) if args.components else None

    def profile_for(seed: int) -> str:
        return (
            _FUZZ_ROTATION[seed % len(_FUZZ_ROTATION)]
            if args.profile == "all" else args.profile
        )

    def runner(t):
        return run_trace(t, config_overrides=overrides)

    if args.farm:
        if wtrace is not None:
            raise SystemExit(
                "hmcsim-repro: error: --farm generates its own traces; "
                "it cannot replay --trace"
            )
        specs = [
            farm_task_spec(
                seed,
                profile=profile_for(seed),
                count=args.count,
                config_name=args.config,
                overrides=overrides,
            )
            for seed in seeds
        ]
        progress = make_progress(sys.stderr) if args.jobs != 1 else None
        results = run_farm(
            specs, jobs=args.jobs, use_cache=not args.no_cache,
            progress=progress,
        )
        # The self-growing corpus: divergent seeds are shrunk and land
        # in the regression-fixture directory by default.
        repro_dir = Path(args.emit_repro or "tests/oracle/repros")
        failures = skips = 0
        for seed, r in zip(seeds, results):
            out.write(format_seed_line(r) + "\n")
            if r.skipped is not None:
                skips += 1
                continue
            if r.ok:
                continue
            failures += 1
            for m in r.mismatches:
                out.write(m + "\n")
            trace = generate_trace(
                seed, profile=r.profile, count=args.count,
                config_name=args.config,
            )
            shrunk = shrink_trace(trace, runner=runner)
            repro_dir.mkdir(parents=True, exist_ok=True)
            path = emit_repro(
                shrunk, repro_dir / f"repro_seed{seed}_{r.profile}.json"
            )
            out.write(
                f"  shrunk to {len(shrunk.requests)} request(s); "
                f"fixture written to {path}\n"
            )
        if failures:
            out.write(f"FAIL: {failures}/{len(seeds)} seed(s) diverged\n")
            return 1
        tail = f", {skips} skipped" if skips else ""
        out.write(f"OK: {len(seeds)} seed(s), no divergence{tail}\n")
        return 0

    failures = skips = 0
    for seed in seeds:
        if wtrace is not None:
            from repro.oracle.workload_traces import trace_from_workload

            profile = "trace"
            trace = trace_from_workload(wtrace, seed=seed)
        else:
            profile = profile_for(seed)
            trace = generate_trace(
                seed, profile=profile, count=args.count, config_name=args.config
            )
        result = run_trace(trace, config_overrides=overrides)
        out.write(format_seed_line(result_from_diff(result)) + "\n")
        if result.skipped is not None:
            skips += 1
            continue
        if result.ok:
            continue
        failures += 1
        for m in result.mismatches:
            out.write(m.describe() + "\n")
        if args.shrink:
            trace = shrink_trace(trace, runner=runner)
            out.write(
                f"  shrunk to {len(trace.requests)} request(s), "
                f"{len(trace.preloads)} preload(s):\n"
            )
            for req in trace.requests:
                out.write(f"    {req.describe()}\n")
        if args.emit_repro:
            directory = Path(args.emit_repro)
            directory.mkdir(parents=True, exist_ok=True)
            path = emit_repro(
                trace, directory / f"repro_seed{seed}_{profile}.json"
            )
            out.write(f"  fixture written to {path}\n")
    if failures:
        out.write(f"FAIL: {failures}/{len(seeds)} seed(s) diverged\n")
        return 1
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

    spec = json.loads(args.spec)
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
    out.write(
        schemas.canonical_json(
            {
                "session": session,
                "submission": reply["submission"],
                "status": reply["status"],
                "payload": reply.get("payload"),
                "error": reply.get("error"),
            }
        )
        + "\n"
    )
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
        with ServeClient(args.socket) as client:
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
