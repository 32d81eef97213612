"""The benchmark of this repository: one command, six workloads.

    python3 perfbench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out FILE]

With one ``--workload`` the run happens in this process and the last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  With none or several, each workload runs in a fresh
child of this script (so ``setup_s`` and ``peak_rss_mb`` are per
workload) and the merged result JSON is written to ``--out``.

Metric names, units and bounds are read from ``BENCHMARK.json``; the
workloads are in :mod:`perfbench.workloads`, the traced boundaries in
:mod:`perfbench.layers`.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s counts from here: imports are set-up

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
BENCH_FILE = ROOT / "BENCHMARK.json"

#: Timed passes per run at full size (the warm-up pass is extra).
MIN_PASSES = 5
#: Fresh-process set-up samples per run (this process and two probes).
SETUP_SAMPLES = 3


def _bootstrap() -> None:
    """Make ``repro`` and ``perfbench`` importable from the checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    # Drop the script directory: perfbench/trace.py must not shadow the
    # standard library's ``trace``.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if importlib.util.find_spec("numpy") is None:
        sys.exit("perfbench: numpy (the [vector] extra) is required")


_bootstrap()

from perfbench.layers import LayerProbe, layer_metrics  # noqa: E402
from perfbench.stats import percentile, summary  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOAD_CLASSES, PassResult, Workload  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0


def load_bench() -> Dict[str, Any]:
    return json.loads(BENCH_FILE.read_text())


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names, metavar="NAME",
                    help=f"one of {', '.join(names)} (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1, help="shapes the generated inputs")
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                    help="keep timing passes for this long (at least %d passes)" % MIN_PASSES)
    ap.add_argument("--trace", nargs="?", type=int, choices=[0, 1], const=1, default=0,
                    help="1: the traced run (per-layer metrics)")
    ap.add_argument("--out", type=Path, default=None, help="result JSON path")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizing of every workload (tests; numbers mean nothing)")
    ap.add_argument("--golden-file", type=Path, default=HERE / "golden.json")
    ap.add_argument("--capture-golden", action="store_true",
                    help="record this run's op digests as the reference (never implicit)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- goldens -----------------------------------------------------------------------


def golden_key(args: argparse.Namespace) -> str:
    return f"{'smoke-' if args.smoke else ''}seed{args.seed}"


def load_golden(path: Path) -> Dict[str, Dict[str, List[str]]]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def write_golden(path: Path, key: str, results: Dict[str, Dict[str, Any]]) -> None:
    golden = load_golden(path)
    for name, result in results.items():
        if result["failed_ops"]:
            sys.exit(f"perfbench: refusing to capture goldens: {name} has failed ops")
        golden.setdefault(name, {})[key] = result["op_digests"]
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"goldens for {', '.join(results)} ({key}) written to {path}")


# -- one workload, in this process -------------------------------------------------


def setup_probe(args: argparse.Namespace, name: str) -> float:
    """Set-up time of a fresh process (a child run with --setup-only)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, timeout=120)
    return float(done.stdout.decode().strip().splitlines()[-1])


def count_failures(
    passes: List[PassResult], reference: List[str], labels: List[str]
) -> Dict[str, Any]:
    """Ops that raised, were refused, failed verification, or whose digest
    differs from the reference (golden, else the first pass)."""
    failed = 0
    messages: List[str] = []
    for p, result in enumerate(passes):
        for i, got in enumerate(result.digests):
            why = result.failures.get(i)
            if why is None and (i >= len(reference) or got != reference[i]):
                want = reference[i] if i < len(reference) else "<no such op>"
                why = f"digest {got} != reference {want}"
            if why is not None:
                failed += 1
                if len(messages) < 10:
                    messages.append(f"pass {p} op {i} ({labels[i]}): {why}")
    return {"failed": failed, "messages": messages}


def run_workload(args: argparse.Namespace, name: str) -> Dict[str, Any]:
    """Set up, measure, check and tear down one workload."""
    bench = load_bench()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    workload: Workload = WORKLOAD_CLASSES[name](
        args.seed, args.smoke, tmp / "w", inprocess=bool(args.trace)
    )
    try:
        try:
            t0 = time.perf_counter()
            workload.setup()
            own_setup = _IMPORT_S + time.perf_counter() - t0
            if args.setup_only:
                return {"setup_s": own_setup}
            setups = [own_setup]
            if not args.trace and not args.smoke:
                setups += [setup_probe(args, name) for _ in range(SETUP_SAMPLES - 1)]
            if args.trace:
                measured = measure_traced(args, workload)
            else:
                measured = measure(args, workload)
        finally:
            workload.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes: List[PassResult] = measured["passes"]
    labels = workload.labels()
    golden = load_golden(args.golden_file).get(name, {}).get(golden_key(args))
    if args.capture_golden:
        golden_state, reference = "captured", passes[0].digests
    elif golden is None:
        golden_state, reference = "absent", passes[0].digests
    else:
        golden_state, reference = "present", golden
    counted = count_failures(passes, reference, labels)
    if golden_state == "present":
        golden_state = "match" if not counted["failed"] else "mismatch or failed ops"
    attempted = sum(len(p.digests) for p in passes)

    result: Dict[str, Any] = {
        "workload": name,
        "seed": args.seed,
        "passes": len(passes),
        "ops_per_pass": len(labels),
        "ops": attempted,
        "failed_ops": counted["failed"],
        "failures": counted["messages"],
        "golden": golden_state,
        "sim_cycles": passes[0].sim_cycles,
        "sim_requests": passes[0].sim_requests,
        "op_digests": passes[0].digests,
    }
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        result["per_layer"] = {
            metric: {"value": measured["layers"].get(metric), "unit": unit}
            for metric, unit in units.items()
        }
        result["missing_boundaries"] = measured["missing"]
        result["trace_file"] = measured["trace_file"]
    else:
        result["metrics"] = end_to_end(bench, passes, setups, workload.peak_rss_mb())
    return result


def measure(args: argparse.Namespace, workload: Workload) -> Dict[str, Any]:
    """The untraced run: a warm-up pass, then timed passes."""
    full = not (workload.single_pass or args.smoke)
    if full:
        workload.run_pass()  # warm-up: caches fill, lazy imports finish
    at_least = MIN_PASSES if full else 1 if workload.single_pass else 2
    passes: List[PassResult] = []
    begin = time.perf_counter()
    while len(passes) < at_least or (
        full and time.perf_counter() - begin < args.seconds
    ):
        passes.append(workload.run_pass())
    _finish(workload, passes[0])
    return {"passes": passes}


def measure_traced(args: argparse.Namespace, workload: Workload) -> Dict[str, Any]:
    """One untraced and one traced pass; the difference is the overhead."""
    if not (workload.single_pass or args.smoke):
        workload.run_pass()  # warm-up
    base = workload.run_pass()
    tracer = Tracer()
    probe = LayerProbe(tracer)
    probe.install()
    try:
        with tracer.span("bench.pass"):
            traced = workload.run_pass(tracer)
        probe.pass_done()
        extra = workload.traced_probes(tracer)
    finally:
        tracer.restore()
    extra.update(workload.untraced_probes())
    _finish(workload, traced)
    base.sim_cycles, base.sim_requests = traced.sim_cycles, traced.sim_requests
    trace_file = OUT_DIR / f"trace-{workload.name}.jsonl"
    tracer.write_jsonl(trace_file)
    layers = layer_metrics(
        probe,
        traced_wall_s=traced.wall_s,
        untraced_wall_s=base.wall_s,
        sim_cycles=traced.sim_cycles,
        sim_requests=traced.sim_requests,
        extra=extra,
    )
    return {
        "passes": [traced, base],
        "layers": layers,
        "missing": tracer.missing,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def _finish(workload: Workload, first: PassResult) -> None:
    """Run the workload's reference checks; a crash there fails op 0."""
    try:
        more = workload.finish(first)
    except Exception as exc:  # noqa: BLE001 - the check itself broke
        more = {0: f"reference check raised {type(exc).__name__}: {exc}"}
    for index, why in more.items():
        first.failures.setdefault(index, why)


def end_to_end(
    bench: Dict[str, Any], passes: List[PassResult], setups: List[float], rss_mb: float
) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics: medians over passes; op latencies are taken
    over all ops of all passes, with per-pass percentiles as their spread."""
    walls = [p.wall_s for p in passes]
    op_ms = [ms for p in passes for ms in p.op_ms]
    cycles, requests = passes[0].sim_cycles, passes[0].sim_requests
    samples = {
        "wall_s": walls,
        "sim_cycles_per_s": [cycles / w for w in walls if w],
        "sim_requests_per_s": [requests / w for w in walls if w],
        "op_p50_ms": [percentile(p.op_ms, 50) for p in passes],
        "op_p95_ms": [percentile(p.op_ms, 95) for p in passes],
        "peak_rss_mb": [rss_mb],
        "setup_s": setups,
    }
    over_all_ops = {"op_p50_ms": percentile(op_ms, 50), "op_p95_ms": percentile(op_ms, 95)}
    out = {}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        stats = summary(samples[name] or [0.0])
        value = over_all_ops.get(name, stats["median"])
        out[name] = {"value": value, "unit": spec["unit"], **stats}
    return out


# -- several workloads, one child each ---------------------------------------------


def run_children(args: argparse.Namespace, names: List[str]) -> Dict[str, Dict[str, Any]]:
    results: Dict[str, Dict[str, Any]] = {}
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        for name in names:
            for trace in ([0, 1] if args.trace else [0]):
                part = tmp / f"{name}-{trace}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--golden-file", str(args.golden_file), "--out", str(part)]
                cmd += ["--smoke"] if args.smoke else []
                cmd += ["--capture-golden"] if args.capture_golden else []
                # The child prints its own metrics; exit 1 = failed ops.
                code = subprocess.run(cmd).returncode
                if code not in (0, 1) or not part.exists():
                    sys.exit(f"perfbench: {name} (trace {trace}) exited with {code}")
                child = json.loads(part.read_text())["workloads"][name]
                if trace:
                    for key in ("per_layer", "missing_boundaries", "trace_file"):
                        results[name][key] = child[key]
                    results[name]["failed_ops"] += child["failed_ops"]
                    results[name]["failures"] += child["failures"]
                else:
                    results[name] = child
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return results


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return done.stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def meta(args: argparse.Namespace, load_start: float, results: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "passes": {name: r["passes"] for name, r in results.items()},
        "hardware_reference": "none in this repository: the model is unvalidated "
                              "against hardware and no accuracy figure is given",
    }


def print_result(name: str, result: Dict[str, Any]) -> None:
    print(f"== {name}: seed {result['seed']}, {result['passes']} passes, "
          f"{result['ops']} ops, {result['failed_ops']} failed, "
          f"sim_cycles {result['sim_cycles']}, golden: {result['golden']}")
    for line in result["failures"]:
        print(f"   FAILED {line}")
    for metric, rec in result.get("metrics", {}).items():
        print(f"   {metric:24s} {rec['value']:14.4f} {rec['unit']:6s} "
              f"q1 {rec['q1']:.4f} q3 {rec['q3']:.4f} n {rec['n']}")
    for metric, rec in result.get("per_layer", {}).items():
        shown = "null" if rec["value"] is None else f"{rec['value']:14.6f}"
        print(f"   {metric:32s} {shown:>14s} {rec['unit']}")
    for boundary, why in result.get("missing_boundaries", {}).items():
        print(f"   boundary {boundary} not traced: {why}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds: the server child and temp root go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_start = os.getloadavg()[0]
    names = args.workload or [w["name"] for w in load_bench()["workloads"]]
    single = len(names) == 1
    if single:
        result = run_workload(args, names[0])
        if args.setup_only:
            print(repr(result["setup_s"]))
            return 0
        results = {names[0]: result}
        print_result(names[0], result)
    else:
        results = run_children(args, names)
    if args.capture_golden and single and not args.trace:
        write_golden(args.golden_file, golden_key(args), results)
    out = args.out
    if out is None and not single:
        out = OUT_DIR / f"result-seed{args.seed}.json"
    if out is not None:
        doc = {"meta": meta(args, load_start, results), "workloads": results}
        out.write_text(json.dumps(doc, indent=1) + "\n")
        if not single:
            print(f"result written to {out}")
    failed = sum(r["failed_ops"] for r in results.values())
    if single:
        # The contract line: last on stdout.
        result = results[names[0]]
        shown = result["per_layer"] if args.trace else result["metrics"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": result["ops"],
            "failed": failed,
            "metrics": {
                metric: {"value": rec["value"] if rec["value"] is not None else 0.0,
                         "unit": rec["unit"]}
                for metric, rec in shown.items()
            },
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
