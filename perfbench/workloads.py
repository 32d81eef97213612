"""The six workloads.  Each stresses a different part of the stack; the
"why" of each is in ``BENCHMARK.json`` and ``perfbench/README.md``.

Only the stable public surface of ``repro`` is called: the workload
registry, ``HMCConfig``/``HMCSim``, ``RequestPacket.build``,
``drive_open_loop``, ``python -m repro``, ``ServeClient``/``SimServer``,
``SweepExecutor``/``SweepCache`` and the checkpoint functions.

The seed shapes the generated inputs only (lock address and point
order, address stream, GUPS stream, submission order, invocation
order); the amount of work per pass does not depend on it.
"""

from __future__ import annotations

import asyncio
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import HMCConfig, HMCSim, RequestPacket, hmc_rqst_t
from repro.host.openloop import OpenLoopStats, drive_open_loop
from repro.parallel import SweepCache, SweepExecutor
from repro.serve.client import ServeClient
from repro.serve.schemas import canonical_json, encode_value
from repro.workloads import WORKLOADS

from perfbench.stats import digest

__all__ = ["PassResult", "Workload", "WORKLOAD_CLASSES"]

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class PassResult:
    """One timed pass: its wall, per-op latencies, digests and failures."""

    wall_s: float
    op_ms: List[float]
    #: One digest per op ("" when the op raised).
    digests: List[str]
    #: op index -> why it failed.
    failures: Dict[int, str] = field(default_factory=dict)
    #: Simulated device cycles / requests of the pass (simulated time).
    sim_cycles: int = 0
    sim_requests: int = 0


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    #: The run is one pass (serve_closed: session length is measured).
    single_pass = False

    def __init__(self, seed: int, smoke: bool, tmp: Path, inprocess: bool = False):
        self.smoke = smoke
        self.tmp = tmp
        #: Traced runs keep the program in this process so wrappers see it.
        self.inprocess = inprocess
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Everything before the first timed op."""

    def labels(self) -> List[str]:
        """One label per op of a pass, in pass order."""
        raise NotImplementedError

    def run_pass(self, tracer: Any = None) -> PassResult:
        raise NotImplementedError

    def finish(self, first: PassResult) -> Dict[int, str]:
        """Reference checks after the measurement; returns more failures
        (op index -> reason) and may fill ``first.sim_*``."""
        return {}

    def close(self) -> None:
        """Stop what setup() started."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def traced_probes(self, tracer: Any) -> Dict[str, Optional[float]]:
        """Layer measurements that need the wrappers installed."""
        return {}

    def untraced_probes(self) -> Dict[str, Optional[float]]:
        """Layer measurements taken after the wrappers are removed."""
        return {}


def _op_span(tracer: Any, label: str):
    return tracer.span("bench.op", op=label) if tracer is not None else nullcontext()


# -- mutex_sweep ---------------------------------------------------------------


class MutexSweep(Workload):
    """Algorithm 1 over the paper's thread axis, a fresh sim per point."""

    name = "mutex_sweep"

    def setup(self) -> None:
        step = 14 if self.smoke else 2
        self.points = [
            (builder, threads)
            for builder in (HMCConfig.cfg_4link_4gb, HMCConfig.cfg_8link_8gb)
            for threads in range(2, 101, step)
        ]
        self.rng.shuffle(self.points)
        self.lock_addr = self.rng.randrange(1 << 16) * 16

    def labels(self) -> List[str]:
        return [f"{builder().describe()} x{threads}" for builder, threads in self.points]

    def run_pass(self, tracer: Any = None) -> PassResult:
        op_ms: List[float] = []
        raw: List[Any] = []
        failures: Dict[int, str] = {}
        cycles = requests = 0
        labels = self.labels() if tracer is not None else [""] * len(self.points)
        start = time.perf_counter()
        for i, (builder, threads) in enumerate(self.points):
            with _op_span(tracer, labels[i]):
                t0 = time.perf_counter()
                try:
                    config = builder()
                    frontend = WORKLOADS.get("mutex")
                    params = frontend.resolve_params(
                        {"threads": threads, "lock_addr": self.lock_addr}
                    )
                    sim = HMCSim(config)
                    frontend.prepare(sim, params)
                    stats = frontend.run(config, params, sim=sim)
                    if frontend.verify(sim, params, stats) is False:
                        failures[i] = "verify failed: lock word not free"
                    raw.append((stats, sim.stats()))
                    cycles += sim.cycle
                    requests += sim.sent_rqsts
                except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
                    failures[i] = f"{type(exc).__name__}: {exc}"
                    raw.append(None)
                op_ms.append((time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - start
        digests = [digest(r) if r is not None else "" for r in raw]
        return PassResult(wall, op_ms, digests, failures, cycles, requests)


# -- deep_queue / deep_queue_vector ----------------------------------------------


class DeepQueue(Workload):
    """Prebuilt TWOADD8 stream held 256 deep on the scalar datapath."""

    name = "deep_queue"
    xbar = "queued"
    depth = 256

    def setup(self) -> None:
        count = 5_000 if self.smoke else 200_000
        blocks = (1 << 22) // 16
        payload = bytes(range(16))
        rng = self.rng
        self.packets = [
            RequestPacket.build(
                hmc_rqst_t.TWOADD8, rng.randrange(blocks) * 16, 0, data=payload
            )
            for _ in range(count)
        ]

    def labels(self) -> List[str]:
        return [f"{len(self.packets)} TWOADD8 depth {self.depth} xbar={self.xbar}"]

    def _drive(self, xbar: str) -> Tuple[float, Any, Optional[str], int, int]:
        packets = self.packets

        def build(idx: int, tag: int) -> RequestPacket:
            pkt = packets[idx]
            pkt.tag = tag
            return pkt

        t0 = time.perf_counter()
        sim = HMCSim(HMCConfig.cfg_8link_8gb(xbar=xbar, link_rsp_rate=16))
        stats = OpenLoopStats(
            config_name=sim.config.describe(), pattern="deep_queue",
            offered_rate=0.0, duration=1, injected=0, completed=0,
            backlogged=0, drain_cycles=0,
        )
        drive_open_loop(
            sim, stats, len(packets), build,
            offered_rate=0.0, duration=0, depth=self.depth,
        )
        wall = time.perf_counter() - t0
        failure = None
        if stats.completed != len(packets):
            failure = f"completed {stats.completed} of {len(packets)}"
        elif xbar == "vector" and getattr(sim.devices[0].xbar, "mode", None) != "vector":
            failure = "vector engine spilled to the scalar path"
        simulated = {
            "sim": sim.stats(),
            "injected": stats.injected,
            "completed": stats.completed,
            "backlogged": stats.backlogged,
            "window": stats.duration,
            "drain_cycles": stats.drain_cycles,
            "latency_sum": sum(stats.latencies),
            "latency_max": max(stats.latencies, default=0),
        }
        return wall, simulated, failure, sim.cycle, sim.sent_rqsts

    def run_pass(self, tracer: Any = None) -> PassResult:
        with _op_span(tracer, self.labels()[0]):
            try:
                wall, simulated, failure, cycles, requests = self._drive(self.xbar)
            except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
                return PassResult(0.0, [0.0], [""], {0: f"{type(exc).__name__}: {exc}"})
        failures = {0: failure} if failure else {}
        return PassResult(
            wall, [wall * 1e3], [digest(simulated)], failures, cycles, requests
        )


class DeepQueueVector(DeepQueue):
    """The identical stream through the columnar (numpy) datapath."""

    name = "deep_queue_vector"
    xbar = "vector"

    def finish(self, first: PassResult) -> Dict[int, str]:
        # Both datapaths must produce the same simulated statistics.
        _, simulated, failure, cycles, _ = self._drive("queued")
        if failure is not None:
            return {0: f"scalar reference: {failure}"}
        if cycles != first.sim_cycles:
            return {0: f"sim_cycles {first.sim_cycles} != scalar path's {cycles}"}
        if digest(simulated) != first.digests[0]:
            return {0: "simulated statistics differ from the scalar path"}
        return {}


# -- stream_gups -----------------------------------------------------------------


class StreamGups(Workload):
    """Block reads beside writes beside 16-byte atomics, packets built live."""

    name = "stream_gups"

    def setup(self) -> None:
        threads, per_thread = (8, 16) if self.smoke else (64, 256)
        table = 4096 if self.smoke else 65536
        gups = {
            "threads": threads, "updates_per_thread": per_thread,
            "table_entries": table, "seed": self.rng.getrandbits(63) | 1,
        }
        self.kernels = [
            ("stream", {"threads": threads, "blocks_per_thread": per_thread}),
            ("gups", dict(gups, atomic=True)),
            ("gups", dict(gups, atomic=False)),
        ]
        self.config = HMCConfig.cfg_4link_4gb()

    def labels(self) -> List[str]:
        return [
            name if name == "stream" else f"gups atomic={params['atomic']}"
            for name, params in self.kernels
        ]

    def run_pass(self, tracer: Any = None) -> PassResult:
        op_ms: List[float] = []
        raw: List[Any] = []
        failures: Dict[int, str] = {}
        cycles = requests = 0
        labels = self.labels()
        start = time.perf_counter()
        for i, (name, params) in enumerate(self.kernels):
            with _op_span(tracer, labels[i]):
                t0 = time.perf_counter()
                try:
                    stats = WORKLOADS.get(name).run(self.config, params)
                    raw.append(stats)
                    cycles += stats.cycles
                    if name == "stream":
                        # Two block reads and one block write per block.
                        requests += stats.bytes_moved // 64
                        if stats.max_abs_error != 0.0:
                            failures[i] = f"triad error {stats.max_abs_error}"
                    else:
                        requests += stats.requests
                        # Read-modify-write GUPS loses updates by design.
                        if params["atomic"] and not stats.verified:
                            failures[i] = "atomic GUPS table failed verification"
                except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
                    failures[i] = f"{type(exc).__name__}: {exc}"
                    raw.append(None)
                op_ms.append((time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - start
        digests = [digest(r) if r is not None else "" for r in raw]
        return PassResult(wall, op_ms, digests, failures, cycles, requests)


# -- child processes ---------------------------------------------------------------


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment of ``python -m repro`` children: the checkout's ``src``
    and a private sweep cache (the user's cache is never touched)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``); returns its exit
    code and peak RSS in MB.  ``os.wait4`` is the only per-child source of
    ``ru_maxrss``."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# -- serve_closed ------------------------------------------------------------------


def late_over_early(latencies_ms: List[float], window: int = 100) -> float:
    """p50 of a session's last ``window`` submissions over its first."""
    window = min(window, max(1, len(latencies_ms) // 2))
    early = statistics.median(latencies_ms[:window])
    late = statistics.median(latencies_ms[-window:])
    return late / early if early else 0.0


class _ServerProcess:
    """``python -m repro serve`` as a child, as a user would run it."""

    def __init__(self, tmp: Path, socket_path: str, max_requests: int):
        self.peak_rss_mb = 0.0
        self._stderr = open(tmp / "server.err", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", socket_path,
                "--state-dir", str(tmp / "state"),
                "--max-requests", str(max_requests),
            ],
            env=child_env(tmp / "cache"),
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.terminate()  # SIGTERM: graceful drain; reap() kills after 15 s
            _, self.peak_rss_mb = reap(self.proc, 15.0)
        self._stderr.close()


class _ServerThread:
    """The same server hosted on a thread of this process (traced runs)."""

    def __init__(self, tmp: Path, socket_path: str, max_requests: int):
        from repro.serve.server import ServeConfig, SimServer

        self.server = SimServer(
            ServeConfig(
                socket_path=Path(socket_path),
                state_dir=tmp / "state",
                max_requests_per_session=max_requests,
                cache_root=tmp / "cache",
            )
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(
                self.server.run(install_signal_handlers=False)
            )
        finally:
            self.loop.close()

    def alive(self) -> bool:
        return self.thread.is_alive()

    def stop(self) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_stop)
            self.thread.join(30.0)

    @property
    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ServeClosed(Workload):
    """Closed loop: 2 clients, one connection and one session each, every
    client sends its next submission only after the previous result."""

    name = "serve_closed"
    single_pass = True
    clients_n = 2
    mix = (("mutex", {"threads": 8}, 8), ("ticket", {"threads": 8}, 1), ("stream", {"threads": 16}, 1))

    def setup(self) -> None:
        per_client = 20 if self.smoke else 500
        # An exact 80/10/10 mix in seeded order: the work does not vary
        # with the seed, only its order.
        self.sequences: List[List[Tuple[str, Dict[str, Any]]]] = []
        for _ in range(self.clients_n):
            ops = [
                (name, params)
                for name, params, share in self.mix
                for _ in range(per_client * share // 10)
            ]
            self.rng.shuffle(ops)
            self.sequences.append(ops)
        self.tmp.mkdir(parents=True, exist_ok=True)
        # Unix socket paths are limited to ~100 bytes: keep it relative.
        socket_path = os.path.relpath(self.tmp / "s.sock")
        kind = _ServerThread if self.inprocess else _ServerProcess
        self.server = kind(self.tmp, socket_path, per_client)
        self.clients: List[ServeClient] = []
        deadline = time.monotonic() + 30.0
        while len(self.clients) < self.clients_n:
            try:
                self.clients.append(ServeClient(socket_path, timeout=120.0))
            except OSError:
                if not self.server.alive() or time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not come up") from None
                time.sleep(0.01)
        self.sessions: List[Optional[str]] = []
        self._new_sessions()

    def _new_sessions(self) -> None:
        self.sessions = [client.create("4link_4gb") for client in self.clients]
        self.latencies: List[List[float]] = [[] for _ in self.clients]

    def labels(self) -> List[str]:
        return [
            f"client{c} #{i} {name}"
            for c, ops in enumerate(self.sequences)
            for i, (name, _) in enumerate(ops)
        ]

    def run_pass(self, tracer: Any = None) -> PassResult:
        if any(self.latencies):
            self._new_sessions()  # a second pass starts from empty journals
        payloads: List[List[Any]] = [[] for _ in self.clients]
        errors: List[Dict[int, str]] = [{} for _ in self.clients]
        gate = threading.Barrier(self.clients_n + 1)

        def client_loop(c: int) -> None:
            client, session = self.clients[c], self.sessions[c]
            gate.wait()
            for i, (name, params) in enumerate(self.sequences[c]):
                if tracer is not None:
                    tracer.set_op(f"client{c} #{i} {name}")
                t0 = time.perf_counter()
                try:
                    reply = client.submit(
                        session, "workload",
                        {"workload": name, "params": params}, wait=True,
                    )
                    if reply.get("status") != "done":
                        errors[c][i] = f"status {reply.get('status')}: {reply.get('error')}"
                    payloads[c].append(reply.get("payload"))
                except Exception as exc:  # noqa: BLE001 - refusal or dead socket
                    errors[c][i] = f"{type(exc).__name__}: {exc}"
                    payloads[c].append(None)
                self.latencies[c].append((time.perf_counter() - t0) * 1e3)

        threads = [
            threading.Thread(target=client_loop, args=(c,)) for c in range(self.clients_n)
        ]
        for thread in threads:
            thread.start()
        gate.wait()
        start = time.perf_counter()  # first submit -> last result
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        self.payloads = payloads
        op_ms, digests, failures = [], [], {}
        base = 0
        for c in range(self.clients_n):
            op_ms.extend(self.latencies[c])
            for i, payload in enumerate(payloads[c]):
                digests.append(
                    digest(canonical_json(payload).encode()) if payload is not None else ""
                )
            failures.update({base + i: why for i, why in errors[c].items()})
            base += len(self.sequences[c])
        return PassResult(wall, op_ms, digests, failures)

    def finish(self, first: PassResult) -> Dict[int, str]:
        """Replay each session's sequence in-process, the way
        ``SimSession`` runs a workload submission (prepare, run on the
        warm sim, drain), and compare the served stats byte for byte."""
        config = HMCConfig.cfg_4link_4gb()
        failures: Dict[int, str] = {}
        cycles = requests = 0
        base = 0
        for c, ops in enumerate(self.sequences):
            sim = HMCSim(config)
            for i, (name, params) in enumerate(ops):
                frontend = WORKLOADS.get(name)
                resolved = frontend.resolve_params(params)
                if frontend.accepts_sim:
                    cycle0, sent0 = sim.cycle, sim.sent_rqsts
                    frontend.prepare(sim, resolved)
                    stats = frontend.run(config, resolved, sim=sim)
                    sim.drain()
                    cycles += sim.cycle - cycle0
                    requests += sim.sent_rqsts - sent0
                else:
                    stats = frontend.run(config, resolved)
                    cycles += stats.cycles
                    requests += stats.bytes_moved // 64
                served = self.payloads[c][i]
                if served is not None and canonical_json(
                    served.get("stats")
                ) != canonical_json(encode_value(stats)):
                    failures[base + i] = "served stats differ from the in-process replay"
            base += len(ops)
        first.sim_cycles, first.sim_requests = cycles, requests
        return failures

    def close(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb

    def traced_probes(self, tracer: Any) -> Dict[str, Optional[float]]:
        from repro.hmc.checkpoint import restore_checkpoint

        journal = 0
        for session in self.sessions:
            root = self.tmp / "state" / str(session)
            journal += (root / "meta.json").stat().st_size
            # Timed by the hmc.checkpoint.restore boundary.
            restore_checkpoint(HMCSim(HMCConfig.cfg_4link_4gb()), root / "checkpoint.json")
        restores = tracer.calls("hmc.checkpoint.restore")
        return {
            "serve.session.journal_bytes": float(journal),
            "hmc.checkpoint.restore_s": (
                tracer.total_s("hmc.checkpoint.restore") / restores if restores else None
            ),
            "serve.session.late_over_early": late_over_early(self.latencies[0]),
        }


# -- cli_sweep ---------------------------------------------------------------------


class CliSweep(Workload):
    """``python -m repro`` invocations: a cold sweep into an empty cache,
    warm repeats of it, and small ``kernel`` runs."""

    name = "cli_sweep"

    def setup(self) -> None:
        self.axis = "2:100:49" if self.smoke else "2:100:7"
        repeats = 1 if self.smoke else 5
        self.sweep = ["sweep", "--threads", self.axis, "--jobs", "1"]
        self.kernel = ["kernel", "mutex", "--threads", "8"]
        # The cold sweep comes first; the seed orders the rest.
        rest = [self.sweep] * repeats + [self.kernel] * repeats
        self.rng.shuffle(rest)
        self.invocations = [self.sweep] + rest
        self.passes_run = 0
        self.child_rss_mb = 0.0
        self.tmp.mkdir(parents=True, exist_ok=True)
        # Fill the bytecode and file caches a first invocation would pay for.
        self._invoke(["info"], self.tmp / "cache-setup")

    def labels(self) -> List[str]:
        return ["sweep cold"] + [
            "sweep warm" if argv is self.sweep else "kernel mutex"
            for argv in self.invocations[1:]
        ]

    def _invoke(self, argv: List[str], cache: Path) -> Tuple[float, int, bytes]:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + argv,
            env=child_env(cache),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        assert proc.stdout is not None
        out = proc.stdout.read()
        proc.stdout.close()
        code, rss = reap(proc, 120.0)
        ms = (time.perf_counter() - t0) * 1e3
        self.child_rss_mb = max(self.child_rss_mb, rss)
        return ms, code, out

    def run_pass(self, tracer: Any = None) -> PassResult:
        self.passes_run += 1
        cache = self.tmp / f"cache-{self.passes_run}"  # empty: the first sweep is cold
        labels = self.labels()
        op_ms, outputs, failures = [], [], {}
        start = time.perf_counter()
        for i, argv in enumerate(self.invocations):
            with _op_span(tracer, labels[i]):
                ms, code, out = self._invoke(argv, cache)
            op_ms.append(ms)
            outputs.append(out)
            if code != 0:
                failures[i] = f"exit code {code}"
        wall = time.perf_counter() - start
        self.outputs = outputs
        for i, argv in enumerate(self.invocations[1:], 1):
            first_same = outputs[self.invocations.index(argv)]
            if outputs[i] != first_same:
                failures.setdefault(i, "stdout differs from the first identical invocation")
        return PassResult(wall, op_ms, [digest(out) for out in outputs], failures)

    def _reference_specs(self) -> Tuple[Any, List[Any], List[HMCConfig]]:
        lo, hi, step = (int(x) for x in self.axis.split(":"))
        frontend = WORKLOADS.get("mutex")
        configs = [HMCConfig.cfg_4link_4gb(), HMCConfig.cfg_8link_8gb()]
        specs = [
            frontend.task_spec(config, threads)
            for config in configs
            for threads in range(lo, hi + 1, step)
        ]
        return frontend, specs, configs

    def finish(self, first: PassResult) -> Dict[int, str]:
        """A parallel uncached sweep must print the same bytes, and the
        printed Table VI and kernel line must match in-process results."""
        failures: Dict[int, str] = {}
        cold = self.outputs[0]
        _, code, out = self._invoke(
            ["sweep", "--threads", self.axis, "--jobs", "2", "--no-cache"],
            self.tmp / "cache-jobs2",
        )
        if code != 0 or out != cold:
            failures[0] = "sweep --jobs 2 --no-cache printed different bytes"
        frontend, specs, configs = self._reference_specs()
        results = SweepExecutor(jobs=1).run(specs)
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in cold.decode().splitlines()
        ]
        per_config = len(specs) // len(configs)
        for k, config in enumerate(configs):
            runs = results[k * per_config : (k + 1) * per_config]
            want = [
                config.describe(),
                str(min(r.min_cycle for r in runs)),
                str(max(r.max_cycle for r in runs)),
                f"{max(r.avg_cycle for r in runs):.2f}",
            ]
            if want not in rows:
                failures[0] = f"Table VI row {want} not in the sweep output"
        kernel = frontend.run(configs[0], {"threads": 8})
        want_kernel = (
            f"x8: min={kernel.min_cycle} max={kernel.max_cycle} avg={kernel.avg_cycle:.2f}"
        )
        kernel_runs = self.invocations.count(self.kernel)
        if want_kernel not in self.outputs[self.invocations.index(self.kernel)].decode():
            failures[self.invocations.index(self.kernel)] = (
                f"kernel output lacks {want_kernel!r}"
            )
        # Warm sweeps simulate nothing: the cache answers them.
        first.sim_cycles = sum(r.total_cycles for r in results) + (
            kernel_runs * kernel.total_cycles
        )
        first.sim_requests = sum(r.cmc_executions for r in results) + (
            kernel_runs * kernel.cmc_executions
        )
        return failures

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb

    def traced_probes(self, tracer: Any) -> Dict[str, Optional[float]]:
        """In-process replicas of the invocations, so the wrappers see the
        layers a child process hides: a cold and five warm cached sweeps
        through the executor, and ``repro.cli.main`` for the kernel."""
        import io

        import repro.cli

        _, specs, _ = self._reference_specs()
        cache = SweepCache(root=self.tmp / "cache-probe")
        for _ in range(self.invocations.count(self.sweep)):  # 1 cold + the warm repeats
            SweepExecutor(jobs=1, cache=cache).run(specs)
        for _ in range(self.invocations.count(self.kernel)):
            repro.cli.main(self.kernel, out=io.StringIO())
        mains = sorted(end - start for _, start, end, _, _ in tracer.spans("cli.main"))
        return {
            "parallel.cache.hits": float(cache.stats.hits),
            "cli.main_s": mains[len(mains) // 2] / 1e9 if mains else None,
        }

    def untraced_probes(self) -> Dict[str, Optional[float]]:
        def start_up(code: str) -> float:
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                subprocess.run(
                    [sys.executable, "-c", code],
                    env=child_env(self.tmp / "cache-probe"), check=True,
                )
                samples.append(time.perf_counter() - t0)
            return sorted(samples)[2]

        interp = start_up("pass")
        _, specs, _ = self._reference_specs()
        t0 = time.perf_counter()
        SweepExecutor(jobs=1).run(specs)
        jobs1 = time.perf_counter() - t0
        t0 = time.perf_counter()
        SweepExecutor(jobs=2).run(specs)
        jobs2 = time.perf_counter() - t0
        return {
            "cli.interp_s": interp,
            "cli.import_s": start_up("import repro.cli") - interp,
            "parallel.pool.run_s_jobs1": jobs1,
            "parallel.pool.run_s_jobs2": jobs2,
            "parallel.pool.speedup": jobs1 / jobs2,
        }


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (MutexSweep, DeepQueue, DeepQueueVector, StreamGups, ServeClosed, CliSweep)
}
