#!/usr/bin/env python3
"""Measure simulator-core throughput and emit ``BENCH_core.json``.

Nine wall-clock benchmarks exercise the cycle-engine hot path:

* **mutex_sweep** — the paper's Algorithm-1 sweep (Figures 5-7 /
  Table VI) over a thinned thread axis (``REPRO_SWEEP_STEP``, default
  7) on both evaluation configurations, executed serially;
* **mutex_sweep_parallel** — the same sweep fanned across the
  runner's cores by the parallel experiment engine
  (``repro.parallel``), cache disabled so the wall clock measures
  real simulation; records the worker count and the speedup vs the
  serial entry of the same run (``REPRO_JOBS`` overrides the worker
  count; on a single-core runner the honest ratio is ~1x);
* **stream_triad** — stride-1 STREAM Triad (bandwidth-shaped traffic
  touching every vault);
* **gups** — RandomAccess atomic-offload scatter;
* **deep_queue** — a depth-gated open loop (256 requests held in
  flight) of TWOADD8 atomics over a uniform address stream on the
  8-link configuration; packets are prebuilt so the wall clock
  measures the engines, not packet construction, and the reported
  wall is the min over several repeats (wall-clock noise dominates
  single runs at this scale);
* **mutex_sweep_vector / stream_triad_vector / gups_vector /
  deep_queue_vector** — the same workloads on the numpy flight-table
  engine
  (``xbar="vector"``); each records ``speedup_vs_active_set``, the
  wall-clock ratio against the scalar active-set entry measured in
  the *same run* (same host, same load).  The engines are
  bit-identical (enforced by the parity goldens, the sweep digest
  test, and the oracle fuzz burn-down), so the identical
  ``sim_cycles`` is asserted here too.  Skipped (``null``) when numpy
  is not installed.

Each reports wall seconds, simulated device cycles, the headline
metric **cycles/sec** (simulated cycles per wall-clock second), the
engine that ran it, and the worker count (``jobs`` — 1 for every
serial entry) alongside ``host_cores``.

Usage::

    # one-time: record the pre-optimization baseline
    PYTHONPATH=src python scripts/bench_to_json.py --capture-baseline

    # after changes: measure, compare against the baseline, write
    # BENCH_core.json at the repo root
    PYTHONPATH=src python scripts/bench_to_json.py

``REPRO_SWEEP_STEP=<k>`` thins the sweep axis (7 for the headline
number, 25 for the CI smoke run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, Optional

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.sweep import run_mutex_sweep  # noqa: E402
from repro.hmc.config import HMCConfig  # noqa: E402
from repro.workloads.registry import WORKLOADS  # noqa: E402

BASELINE_PATH = REPO / "benchmarks" / "baseline_seed.json"
OUT_PATH = REPO / "BENCH_core.json"

HOST_CORES = os.cpu_count() or 1

#: Engine label for each xbar seam key.
ENGINES = {"queued": "active_set", "vector": "vector"}


def _axis(step: int):
    if step <= 1:
        return list(range(2, 101))
    return sorted(set(list(range(2, 101))[::step]) | {2, 99, 100})


def _entry(wall: float, cycles: int, xbar: str, **extra) -> Dict[str, object]:
    out: Dict[str, object] = {
        "wall_s": round(wall, 4),
        "sim_cycles": cycles,
        "cycles_per_sec": round(cycles / wall, 1) if wall else None,
        "engine": ENGINES[xbar],
        "jobs": 1,
        "host_cores": HOST_CORES,
    }
    out.update(extra)
    return out


def bench_mutex_sweep(step: int, xbar: str = "queued") -> Dict[str, object]:
    axis = _axis(step)
    cycles = 0
    t0 = time.perf_counter()
    for cfg in (
        HMCConfig.cfg_4link_4gb(xbar=xbar),
        HMCConfig.cfg_8link_8gb(xbar=xbar),
    ):
        for n in axis:
            cycles += WORKLOADS.get("mutex").run(cfg, {"threads": n}).total_cycles
    wall = time.perf_counter() - t0
    return _entry(wall, cycles, xbar, points=len(axis) * 2, sweep_step=step)


def bench_mutex_sweep_parallel(step: int, serial_wall: float) -> Dict[str, object]:
    jobs = int(os.environ.get("REPRO_JOBS", "0")) or HOST_CORES
    axis = _axis(step)
    t0 = time.perf_counter()
    sweeps = [
        run_mutex_sweep(cfg, axis, jobs=jobs, use_cache=False)
        for cfg in (HMCConfig.cfg_4link_4gb(), HMCConfig.cfg_8link_8gb())
    ]
    wall = time.perf_counter() - t0
    cycles = sum(r.total_cycles for s in sweeps for r in s.runs)
    out = _entry(wall, cycles, "queued", points=len(axis) * 2, sweep_step=step)
    out["jobs"] = jobs
    out["speedup_vs_serial"] = round(serial_wall / wall, 2) if wall else None
    return out


def bench_stream_triad(xbar: str = "queued") -> Dict[str, object]:
    t0 = time.perf_counter()
    stats = WORKLOADS.get("stream").run(
        HMCConfig.cfg_4link_4gb(xbar=xbar), {"threads": 16, "blocks_per_thread": 48}
    )
    wall = time.perf_counter() - t0
    assert stats.max_abs_error == 0.0
    return _entry(
        wall,
        stats.cycles,
        xbar,
        bytes_per_cycle=round(stats.bytes_per_cycle, 3),
    )


def bench_gups(xbar: str = "queued") -> Dict[str, object]:
    t0 = time.perf_counter()
    stats = WORKLOADS.get("gups").run(
        HMCConfig.cfg_4link_4gb(xbar=xbar),
        {"threads": 16, "updates_per_thread": 48, "table_entries": 4096, "atomic": True},
    )
    wall = time.perf_counter() - t0
    assert stats.verified
    return _entry(
        wall,
        stats.cycles,
        xbar,
        updates_per_cycle=round(stats.updates_per_cycle, 4),
    )


def bench_deep_queue(xbar: str = "queued") -> Dict[str, object]:
    """Depth-gated open loop: 256 TWOADD8s held in flight at all times.

    The shape where the columnar vault-execute path pays: every cycle
    the batch executor sees hundreds of ready rows of one command
    class and executes them as a handful of numpy passes.  Packets
    are prebuilt (tag patched per send) so both engines are measured
    on datapath cost alone, and the min over ``repeats`` fresh runs
    is reported — at ~0.2-0.4s per run, scheduler noise swamps a
    single sample.
    """
    from repro.hmc.commands import hmc_rqst_t
    from repro.hmc.packet import RequestPacket
    from repro.hmc.sim import HMCSim
    from repro.host.openloop import OpenLoopStats, drive_open_loop

    count, depth, repeats = 30_000, 256, 5
    mask = (1 << 64) - 1
    blocks = (1 << 22) // 16
    state = 0xFEED
    payload = bytes(range(16))
    pkts = []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) & mask
        addr = ((state >> 20) % blocks) * 16
        pkts.append(RequestPacket.build(hmc_rqst_t.TWOADD8, addr, 0, data=payload))

    def build(idx: int, tag: int):
        pkt = pkts[idx]
        pkt.tag = tag
        return pkt

    best_wall, cycles = None, None
    for _ in range(repeats):
        sim = HMCSim(HMCConfig.cfg_8link_8gb(xbar=xbar, link_rsp_rate=16))
        stats = OpenLoopStats(
            config_name="8link_8gb",
            pattern="deep_queue",
            offered_rate=0.0,
            duration=1,
            injected=0,
            completed=0,
            backlogged=0,
            drain_cycles=0,
        )
        t0 = time.perf_counter()
        drive_open_loop(
            sim, stats, count, build, offered_rate=0.0, duration=0, depth=depth
        )
        wall = time.perf_counter() - t0
        assert stats.completed == count
        if cycles is None:
            cycles = sim.cycle
        else:
            # Fresh sim + identical stream: deterministic by contract.
            assert sim.cycle == cycles
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return _entry(
        best_wall,
        cycles,
        xbar,
        depth=depth,
        requests=count,
        repeats=repeats,
        requests_per_cycle=round(count / cycles, 2),
    )


def _have_numpy() -> bool:
    try:
        import numpy  # noqa: F401

        return True
    except ImportError:
        return False


def _vector_row(
    bench, scalar: Dict[str, object], *args
) -> Optional[Dict[str, object]]:
    """Run ``bench`` on the vector engine; ratio against ``scalar``.

    The two engines simulate the same cycles by construction — a
    mismatch means bit-identity broke, which the parity tests would
    also catch, so fail loudly here rather than publish a bogus row.
    """
    if not _have_numpy():
        return None
    row = bench(*args, xbar="vector")
    assert row["sim_cycles"] == scalar["sim_cycles"], (
        f"vector engine simulated {row['sim_cycles']} cycles, "
        f"active-set {scalar['sim_cycles']} — bit-identity broken"
    )
    row["speedup_vs_active_set"] = (
        round(scalar["wall_s"] / row["wall_s"], 2) if row["wall_s"] else None
    )
    return row


def bench_oracle_online(
    threads: int = 100, sample: int = 64
) -> Dict[str, object]:
    """Online-oracle overhead on the mutex kernel at the paper's max DOP.

    Warm-up run plus min-of-3 on each side; the headline number is the
    shadowed run's wall-clock overhead over the unshadowed baseline.
    Sampling cost is fixed per check, so it amortizes with scale —
    measure at small thread counts and the fixed costs dominate.
    """
    cfg = HMCConfig.cfg_4link_4gb()

    def measure(**kw):
        params = {"threads": threads, **kw}
        WORKLOADS.get("mutex").run(cfg, params)  # warm-up
        best, cycles, checks = None, 0, 0
        for _ in range(3):
            t0 = time.perf_counter()
            stats = WORKLOADS.get("mutex").run(cfg, params)
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best, cycles = dt, stats.total_cycles
                checks = stats.oracle_checks
        return best, cycles, checks

    base_wall, _base_cycles, _ = measure()
    wall, cycles, checks = measure(oracle_sample=sample)
    out = _entry(
        wall,
        cycles,
        "queued",
        threads=threads,
        oracle_sample=sample,
        oracle_checks=checks,
    )
    out["base_wall_s"] = round(base_wall, 4)
    out["overhead_pct"] = (
        round(100.0 * (wall - base_wall) / base_wall, 1) if base_wall else None
    )
    return out


def run_all(step: int) -> Dict[str, object]:
    serial = bench_mutex_sweep(step)
    parallel = bench_mutex_sweep_parallel(step, serial["wall_s"])
    # The parallel engine's whole contract: identical simulated work.
    assert parallel["sim_cycles"] == serial["sim_cycles"], (
        f"parallel sweep simulated {parallel['sim_cycles']} cycles, "
        f"serial {serial['sim_cycles']} — determinism broken"
    )
    triad = bench_stream_triad()
    gups = bench_gups()
    deep = bench_deep_queue()
    return {
        "mutex_sweep": serial,
        "mutex_sweep_parallel": parallel,
        "stream_triad": triad,
        "gups": gups,
        "deep_queue": deep,
        "oracle_online": bench_oracle_online(),
        "mutex_sweep_vector": _vector_row(bench_mutex_sweep, serial, step),
        "stream_triad_vector": _vector_row(bench_stream_triad, triad),
        "gups_vector": _vector_row(bench_gups, gups),
        "deep_queue_vector": _vector_row(bench_deep_queue, deep),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--capture-baseline",
        action="store_true",
        help=f"write results to {BASELINE_PATH} instead of comparing",
    )
    ap.add_argument("--out", type=Path, default=OUT_PATH)
    ap.add_argument(
        "--label", default="", help="free-form label stored in the output"
    )
    args = ap.parse_args()

    step = int(os.environ.get("REPRO_SWEEP_STEP", "7"))
    meta = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "sweep_step": step,
        "jobs": int(os.environ.get("REPRO_JOBS", "0")) or HOST_CORES,
        "host_cores": HOST_CORES,
        "label": args.label,
    }
    results = run_all(step)

    if args.capture_baseline:
        BASELINE_PATH.write_text(
            json.dumps({"meta": meta, "results": results}, indent=1) + "\n"
        )
        print(f"baseline written to {BASELINE_PATH}")
        print(json.dumps(results, indent=1))
        return

    doc: Dict[str, object] = {"meta": meta, "after": results}
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        doc["before"] = baseline["results"]
        doc["baseline_meta"] = baseline["meta"]
        speedup = {}
        for name, after in results.items():
            before = baseline["results"].get(name)
            if not after or not before or not before.get("wall_s"):
                continue
            if before.get("sweep_step", step) != after.get("sweep_step", step):
                # A thinned sweep against a fuller baseline (or vice
                # versa) measures different work — no honest ratio.
                speedup[name] = None
                continue
            speedup[name] = round(before["wall_s"] / after["wall_s"], 2)
        doc["speedup"] = speedup
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    print(json.dumps(doc.get("speedup", results), indent=1))


if __name__ == "__main__":
    main()
