"""Trace record and replay: any engine run, re-run as data.

Recording hangs a :class:`TraceRecorder` off the host engine (the
``recorder`` attribute, one ``None``-check per accepted send): every
packet the crossbar accepts is logged with its cycle, thread, command,
address, and full payload.  Because the engine injects in tid order,
drains links in a fixed order, and reissues same-cycle, the simulator
is deterministic end to end — so replaying the recorded per-thread
request streams through a fresh engine reproduces the original run's
per-thread completion cycles *exactly*, on either datapath (the scalar
active-set engine or the numpy flight table).  ``repro trace replay``
checks that contract against the ``baseline`` block recorded in the
trace header.

Two replay modes:

``replay_trace`` (closed-loop)
    One replay thread per recorded thread, yielding the recorded
    packets in order; full semantic re-execution.

``replay_open_loop``
    The recorded stream as *traffic*: requests injected at a fixed
    offered rate through :func:`repro.host.openloop.drive_open_loop`,
    ignoring response dependencies.  The right tool for converted
    Tracer output (which has no thread structure) and for load studies.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.hmc.commands import FLIT_BYTES, command_for_code, hmc_rqst_t
from repro.hmc.config import CONFIGS, HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.openloop import OpenLoopStats, drive_open_loop
from repro.host.thread import Program, ThreadCtx
from repro.workloads.base import ProgramFactory, WorkloadFrontend
from repro.workloads.registry import WORKLOADS, register_workload
from repro.workloads.tracefmt import TraceRecord, TraceThread, WorkloadTrace

__all__ = [
    "TraceRecorder",
    "ReplayStats",
    "record_workload",
    "replay_trace",
    "replay_open_loop",
    "TraceReplayWorkload",
]


def config_key(config: HMCConfig) -> str:
    """The trace-header name for ``config`` (best effort)."""
    key = f"{config.num_links}link_{config.capacity}gb"
    return key if key in CONFIGS else config.describe()


def _resolve_config(trace: WorkloadTrace, config: Optional[HMCConfig]) -> HMCConfig:
    if config is not None:
        return config
    factory = CONFIGS.get(trace.config_name or "")
    if factory is None:
        raise WorkloadError(
            f"trace names no resolvable config ({trace.config_name!r}); "
            f"pass one explicitly"
        )
    return factory()


class TraceRecorder:
    """Engine hook collecting accepted sends and the final result."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self.threads: Dict[int, TraceThread] = {}
        self.result: Any = None

    def on_send(self, cycle: int, thread: Any, pkt: Any) -> None:
        tid = thread.tid
        if tid not in self.threads:
            self.threads[tid] = TraceThread(
                tid=tid, link=thread.ctx.link, cub=thread.ctx.cub
            )
        self.records.append(
            TraceRecord(
                cycle=cycle,
                tid=tid,
                cmd=hmc_rqst_t(pkt.cmd).name,
                addr=pkt.addr,
                data=pkt.data,
                cub=pkt.cub,
            )
        )

    def on_result(self, result: Any) -> None:
        self.result = result


def record_workload(
    name: str,
    config: HMCConfig,
    params: Optional[Dict[str, Any]] = None,
    *,
    fault_plan: Any = None,
) -> Tuple[Any, WorkloadTrace]:
    """Run workload ``name`` with the recorder attached.

    Returns ``(stats, trace)``; the trace header carries the workload
    name and parameters (for state reconstruction at replay), the CMC
    modules the run loaded, the thread/link map, and the run's
    per-thread completion cycles as the replay baseline.
    """
    frontend = WORKLOADS.get(name)
    resolved = frontend.resolve_params(params)
    sim = HMCSim(config)
    recorder = TraceRecorder()
    stats = frontend.run(
        config, resolved, sim=sim, fault_plan=fault_plan, recorder=recorder
    )
    if recorder.result is None:
        raise WorkloadError(
            f"workload {name!r} completed without reporting an engine "
            f"result to the recorder"
        )
    baseline = {t.tid: t.cycles for t in recorder.result.threads}
    seen = set()
    cmc_modules = tuple(
        op.source
        for op in sim.cmc.operations()
        if op.source and not (op.source in seen or seen.add(op.source))
    )
    trace = WorkloadTrace(
        config_name=config_key(config),
        workload=name,
        params=resolved,
        cmc_modules=cmc_modules,
        threads=tuple(info for _, info in sorted(recorder.threads.items())),
        requests=tuple(recorder.records),
        baseline_cycles=baseline,
    )
    return stats, trace


# -- closed-loop replay -------------------------------------------------------

def _prepare_replay_sim(
    trace: WorkloadTrace, sim: HMCSim
) -> None:
    """Reconstruct the recorded run's starting state on ``sim``."""
    if trace.workload:
        frontend = WORKLOADS.get(trace.workload)
        frontend.prepare(sim, frontend.resolve_params(trace.params))
    else:
        for module in trace.cmc_modules:
            sim.load_cmc(module)
        for addr, data in trace.preloads:
            sim.mem_write(addr, data)


def _payload_for(sim: HMCSim, rec: TraceRecord) -> bytes:
    """The request payload, zero-filled for lossy (converted) traces."""
    if rec.data:
        return rec.data
    info = command_for_code(int(rec.rqst()))
    if info.rqst_flits is None:
        return rec.data  # CMC: build_memrequest pads from the registration
    return bytes(max(0, (info.rqst_flits - 1) * FLIT_BYTES))


def _replay_program(ctx: ThreadCtx, records: List[TraceRecord]) -> Program:
    sim = ctx.sim
    for rec in records:
        yield sim.build_memrequest(
            rec.rqst(),
            rec.addr,
            ctx.tag,
            cub=rec.cub,
            data=_payload_for(sim, rec),
        )


class ReplayStats:
    """Outcome of one closed-loop replay."""

    def __init__(
        self,
        config_name: str,
        workload: Optional[str],
        result: Any,
        baseline: Dict[int, int],
    ) -> None:
        self.config_name = config_name
        self.workload = workload
        self.result = result
        self.baseline = baseline
        self.thread_cycles = {t.tid: t.cycles for t in result.threads}

    @property
    def matches_baseline(self) -> Optional[bool]:
        """Per-thread cycle identity vs the recording (None: no baseline)."""
        if not self.baseline:
            return None
        return self.thread_cycles == self.baseline

    def mismatches(self) -> List[str]:
        out = []
        for tid in sorted(set(self.baseline) | set(self.thread_cycles)):
            want = self.baseline.get(tid)
            got = self.thread_cycles.get(tid)
            if want != got:
                out.append(f"tid{tid}: recorded {want} cycles, replayed {got}")
        return out

    def summary(self) -> str:
        """The replay's report: its cycles, then the baseline verdict."""
        r = self.result
        lines = [
            f"{self.config_name} trace replay"
            + (f" [{self.workload}]" if self.workload else "")
            + f": {len(r.threads)} thread(s), {r.total_cycles} cycles, "
            f"min={r.min_cycle} max={r.max_cycle} avg={r.avg_cycle:.2f}"
        ]
        match = self.matches_baseline
        if match is None:
            lines.append("no baseline in the trace header; nothing to check")
        elif match:
            lines.append("baseline: per-thread cycles match the recording")
        else:
            lines += ["baseline MISMATCH:", *(f"  {m}" for m in self.mismatches())]
        return "\n".join(lines)


def replay_trace(
    trace: WorkloadTrace,
    *,
    config: Optional[HMCConfig] = None,
    max_cycles: int = 1_000_000,
) -> ReplayStats:
    """Closed-loop replay: per-thread recorded streams, fresh engine."""
    from repro.host.engine import HostEngine

    if not trace.requests:
        raise WorkloadError("trace has no requests to replay")
    if not trace.threads:
        raise WorkloadError(
            "trace has no thread structure (a converted Tracer trace?) "
            "— use open-loop replay"
        )
    cfg = _resolve_config(trace, config)
    sim = HMCSim(cfg)
    _prepare_replay_sim(trace, sim)
    engine = HostEngine(sim, max_cycles=max_cycles)
    by_thread = trace.by_thread()
    for info in trace.threads:
        records = by_thread.get(info.tid, [])
        engine.add_thread(
            lambda ctx, records=records: _replay_program(ctx, records),
            link=info.link,
            cub=info.cub,
        )
    result = engine.run()
    return ReplayStats(
        config_name=cfg.describe(),
        workload=trace.workload,
        result=result,
        baseline=dict(trace.baseline_cycles),
    )


def _replay_warmup(cfg: HMCConfig) -> int:
    """Pipeline warm-up slack for the open-loop duration estimate.

    ``ceil(len(records) / rate)`` alone covers only the injection slots;
    it ignores that the first responses trail their requests by the
    device round trip, and that stalled slots push trailing records past
    the window.  At high rates that skews the offered-rate stats two
    ways at once: ``achieved_rate`` divides drain-phase completions by a
    window that excludes them (overstating throughput far beyond what
    the links can retire), and records that stall near the end of the
    too-short window never inject at all.  The slack term bounds the
    round trip: the four pipeline phases (inject, xbar drain, vault
    execute, retire) plus worst-case response-queue residency at the
    link retire rate.
    """
    return 4 + math.ceil(cfg.xbar_depth / max(1, cfg.link_rsp_rate))


def replay_open_loop(
    trace: WorkloadTrace,
    *,
    config: Optional[HMCConfig] = None,
    rate: float = 4.0,
    max_drain: int = 100_000,
    depth: Optional[int] = None,
) -> OpenLoopStats:
    """Open-loop replay: the recorded stream as rate-driven traffic.

    Re-tags requests from the free pool (recorded tags are per-thread
    and would collide once response gating is dropped) and injects on
    each record's original link when the trace has thread structure,
    round-robin otherwise.  Data-dependent operations will see
    different values than the recording — this is a traffic replay,
    not a semantic one.

    With ``depth`` set, injection is gated on the in-flight population
    instead of ``rate`` (see :func:`repro.host.openloop.drive_open_loop`)
    — the whole stream is replayed at a sustained queue depth and the
    stats record the measured window.
    """
    if not trace.requests:
        raise WorkloadError("trace has no requests to replay")
    cfg = _resolve_config(trace, config)
    sim = HMCSim(cfg)
    _prepare_replay_sim(trace, sim)
    records = trace.requests
    links = {t.tid: t.link for t in trace.threads}
    num_links = cfg.num_links

    def build(idx: int, tag: int):
        rec = records[idx]
        return sim.build_memrequest(
            rec.rqst(), rec.addr, tag, cub=rec.cub, data=_payload_for(sim, rec)
        )

    link_for = None
    if links:
        def link_for(idx: int) -> int:  # noqa: F811
            rec = records[idx]
            return links.get(rec.tid, rec.tid % num_links)

    duration = max(1, math.ceil(len(records) / rate)) + _replay_warmup(cfg)
    stats = OpenLoopStats(
        config_name=cfg.describe(),
        pattern="trace",
        offered_rate=rate,
        duration=duration,
        injected=0,
        completed=0,
        backlogged=0,
        drain_cycles=0,
    )
    return drive_open_loop(
        sim,
        stats,
        len(records),
        build,
        offered_rate=rate,
        duration=duration,
        max_drain=max_drain,
        link_for=link_for,
        depth=depth,
    )


@register_workload
class TraceReplayWorkload(WorkloadFrontend):
    """The trace frontend, registered as ``"trace"``.

    Params: ``path`` (a workload-trace JSONL file) or ``trace`` (an
    in-memory :class:`WorkloadTrace`), ``mode`` (``closed``/``open``),
    ``rate`` (open-loop offered rate), ``depth`` (open-loop in-flight
    target; overrides ``rate`` gating), ``max_cycles``.
    """

    name = "trace"
    kind = "trace"
    description = "replay a recorded or converted workload trace"
    accepts_sim = False  # replay reconstructs its context from the header

    def default_params(self) -> Dict[str, Any]:
        return {
            "path": None,
            "trace": None,
            "mode": "closed",
            "rate": 4.0,
            "depth": None,
            "max_cycles": 1_000_000,
        }

    def _trace(self, params: Dict[str, Any]) -> WorkloadTrace:
        if params["trace"] is not None:
            return params["trace"]
        if params["path"] is None:
            raise WorkloadError("trace replay needs a 'path' or 'trace' param")
        # One load per path: the CLI reads the header's config before run.
        if getattr(self, "_loaded", (None,))[0] != params["path"]:
            self._loaded = (params["path"], WorkloadTrace.load(params["path"]))
        return self._loaded[1]

    def default_config(self, params: Dict[str, Any]) -> Optional[str]:
        name = self._trace(self.resolve_params(params)).config_name
        return name if name in CONFIGS else None

    def format_stats(self, stats: Any, fault_plan: Any = None) -> str:
        return stats.summary()

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        raise WorkloadError(
            "workload 'trace' pins each replay thread to its recorded "
            "link (closed) or injects by rate (open); drive it through run()"
        )

    def run(self, config, params=None, *, sim=None, fault_plan=None, recorder=None):
        p = self.admit(params, sim, fault_plan, recorder)
        trace = self._trace(p)
        if p["mode"] == "open":
            return replay_open_loop(
                trace, config=config, rate=p["rate"], depth=p["depth"]
            )
        return replay_trace(trace, config=config, max_cycles=p["max_cycles"])
