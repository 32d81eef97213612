"""Open-loop traffic injection: latency versus offered load.

The closed-loop engines (:mod:`repro.host.engine`,
:mod:`repro.host.window`) model threads that wait for their own
responses.  Memory-system characterization also needs the *open-loop*
view: requests arrive at a fixed offered rate regardless of completion
— the setup behind every latency-vs-bandwidth "knee" curve, and the
regime where the HMC-Sim queueing structures (and their stalls)
actually fill.

:func:`drive_open_loop` is the injector itself: it pulls packets from
a ``build(idx, tag)`` callback at ``offered_rate`` requests/cycle for
``duration`` cycles, with the 11-bit tag space bounding the in-flight
population exactly as it would a real host; when no tag is free the
injector drops the injection slot and counts it (offered > sustainable
load shows up as both latency growth and injection backlog).

:func:`run_open_loop` is the classic characterization harness on top:
RD16 traffic over a deterministic address pattern ("uniform" LCG
scatter or "stride" streaming), spread round-robin over the links.
Trace replay (:func:`repro.workloads.replay.replay_open_loop`) drives
the same injector with recorded request streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.packet import MAX_TAG
from repro.hmc.sim import _EXPECTS, _STALL, HMCSim

__all__ = ["OpenLoopStats", "drive_open_loop", "run_open_loop"]

_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_M64 = (1 << 64) - 1


def _pattern_addrs(pattern: str, count: int, footprint: int, seed: int) -> List[int]:
    """Deterministic address stream, 16-byte aligned within ``footprint``."""
    blocks = footprint // 16
    addrs: List[int] = []
    if pattern == "stride":
        for i in range(count):
            addrs.append((i % blocks) * 16)
    elif pattern == "uniform":
        state = seed & _M64
        for _ in range(count):
            state = (state * _LCG_MUL + _LCG_ADD) & _M64
            addrs.append(((state >> 20) % blocks) * 16)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return addrs


@dataclass
class OpenLoopStats:
    """Outcome of one open-loop run."""

    config_name: str
    pattern: str
    offered_rate: float
    duration: int
    injected: int
    completed: int
    #: Injection slots lost to full queues or an empty tag pool.
    backlogged: int
    drain_cycles: int
    latencies: List[int] = field(default_factory=list)
    #: In-flight target when the run was depth-gated (``--depth``);
    #: ``None`` for pure rate-driven runs.
    depth: Optional[int] = None

    @property
    def achieved_rate(self) -> float:
        """Completed requests per cycle over the injection window.

        A zero-length window (``duration=0``, or a depth-gated run whose
        stream never opened a measured window) completed nothing per
        cycle: 0.0, not a ``ZeroDivisionError`` — which would also
        poison :attr:`saturated`.
        """
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def mean_latency(self) -> float:
        """Mean request latency in cycles."""
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def p99_latency(self) -> int:
        """99th-percentile latency in cycles."""
        if not self.latencies:
            return 0
        xs = sorted(self.latencies)
        return xs[min(len(xs) - 1, (len(xs) * 99) // 100)]

    @property
    def saturated(self) -> bool:
        """True when the device could not absorb the offered load."""
        return self.backlogged > 0 or self.achieved_rate < self.offered_rate * 0.95

    def summary(self) -> str:
        """The one-line report of ``openloop`` and open-mode trace replay."""
        if self.depth is not None:
            offered, knee = f"depth {self.depth}", "queue-gated"
        else:
            offered = f"offered {self.offered_rate}/cyc"
            knee = "SATURATED" if self.saturated else "below the knee"
        return (
            f"{self.config_name} open-loop {self.pattern}: {offered}, "
            f"achieved {self.achieved_rate:.2f}/cyc, mean latency "
            f"{self.mean_latency:.1f} cyc, p99 {self.p99_latency} cyc, {knee}"
        )


def drive_open_loop(
    sim: HMCSim,
    stats: OpenLoopStats,
    count: int,
    build: Callable[[int, int], object],
    *,
    offered_rate: float,
    duration: int,
    max_drain: int = 100_000,
    link_for: Optional[Callable[[int], int]] = None,
    depth: Optional[int] = None,
) -> OpenLoopStats:
    """Inject ``count`` requests at a fixed rate; fill in ``stats``.

    Args:
        sim: the simulation context (state already prepared).
        stats: the stats object to accumulate into (identity fields set
            by the caller).
        count: length of the request stream; injection stops early when
            the stream is exhausted before ``duration`` elapses.
        build: ``build(idx, tag)`` returns the ``idx``-th request packet
            carrying ``tag`` (tags are leased from the free pool and
            recycled on completion).
        offered_rate: requests per device cycle (fractional rates use a
            deterministic accumulator).
        duration: injection window in cycles; the run then drains.
        max_drain: bound on cycles without progress: of the drain phase,
            and of depth-gated cycles that neither inject nor complete.
        link_for: link choice per stream index; round-robin over the
            config's links when omitted.
        depth: when set, ignore ``offered_rate``/``duration`` and gate
            injection on the in-flight population instead: every cycle,
            top the outstanding count back up to ``depth`` (stopping at
            a stall — the queues are full past this point anyway) until
            the stream is exhausted, then drain.  This is the deep-queue
            regime: a stall is back-pressure, not a lost slot, so only
            genuine queue refusals count as ``backlogged``.
            ``stats.duration`` is rewritten to the *measured* injection
            window so ``achieved_rate`` stays honest.
    """
    num_links = sim.config.num_links
    links = sim.devices[0].links
    latencies = stats.latencies
    free_tags = list(range(MAX_TAG + 1))
    inject_cycle: Dict[int, int] = {}

    credit = 0.0
    idx = 0
    link_rr = 0

    send = sim.send
    expects_response = sim.expects_response
    STALL = _STALL

    def drain_responses() -> None:
        now = sim.cycle
        for link in range(num_links):
            if links[link].retired:  # else nothing to collect: no recv call
                done = sim.recv_batch(link=link)
                stats.completed += len(done)
                for rsp in done:
                    latencies.append(now - inject_cycle.pop(rsp.tag))
                    free_tags.append(rsp.tag)

    if depth is not None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        window = 0
        stalled = 0  # consecutive cycles that neither injected nor completed
        while idx < count and stalled < max_drain:
            now = sim.cycle  # constant until the clock below
            first, completed = idx, stats.completed
            while len(inject_cycle) < depth and idx < count and free_tags:
                tag = free_tags.pop()
                pkt = build(idx, tag)
                link = link_rr if link_for is None else link_for(idx)
                if send(pkt, link=link) is STALL:
                    free_tags.append(tag)
                    stats.backlogged += 1
                    break
                expects = _EXPECTS[pkt.cmd]  # expects_response, from send's memo
                if expects is None and (
                    sim._cmc_expects_epoch != sim.cmc.epoch
                    or (expects := sim._cmc_expects.get(pkt.cmd)) is None
                ):
                    expects = expects_response(pkt)
                if expects:
                    inject_cycle[tag] = now
                else:
                    free_tags.append(tag)  # posted: nothing to await
                idx += 1
                link_rr = (link_rr + 1) % num_links
            stats.injected += idx - first
            sim.clock()
            drain_responses()
            window += 1
            stalled = 0 if idx > first or stats.completed > completed else stalled + 1
        stats.duration = max(1, window)
        stats.depth = depth
    else:
        for _ in range(duration):
            credit += offered_rate
            now = sim.cycle
            while credit >= 1.0 and idx < count:
                credit -= 1.0
                if not free_tags:
                    stats.backlogged += 1
                    continue
                tag = free_tags.pop()
                pkt = build(idx, tag)
                link = link_rr if link_for is None else link_for(idx)
                if send(pkt, link=link) is STALL:
                    free_tags.append(tag)
                    stats.backlogged += 1
                else:
                    if expects_response(pkt):
                        inject_cycle[tag] = now
                    else:
                        free_tags.append(tag)  # posted: nothing to await
                    stats.injected += 1
                    idx += 1
                link_rr = (link_rr + 1) % num_links
            sim.clock()
            drain_responses()

    # Drain phase: no new injections.
    drained = 0
    while inject_cycle and drained < max_drain:
        sim.clock()
        drain_responses()
        drained += 1
    stats.drain_cycles = drained
    return stats


def run_open_loop(
    config: HMCConfig,
    *,
    offered_rate: float = 2.0,
    duration: int = 512,
    pattern: str = "uniform",
    footprint: int = 1 << 22,
    seed: int = 0xFEED,
    max_drain: int = 100_000,
    depth: Optional[int] = None,
) -> OpenLoopStats:
    """Inject RD16 traffic at a fixed rate and measure latency/throughput.

    Args:
        config: device configuration.
        offered_rate: requests per device cycle (fractional rates use a
            deterministic accumulator).  With ``depth`` set it only
            sizes the stream (``offered_rate * duration`` requests).
        duration: injection window in cycles; the run then drains.
        pattern: "uniform" scatter or "stride" streaming.
        footprint: byte range the addresses cover.
        seed: pattern seed.
        max_drain: drain-phase safety bound.
        depth: in-flight target; switches the injector to depth-gated
            mode (see :func:`drive_open_loop`).
    """
    sim = HMCSim(config)
    total_wanted = int(offered_rate * duration) + 1
    addrs = _pattern_addrs(pattern, total_wanted, footprint, seed)
    stats = OpenLoopStats(
        config_name=config.describe(),
        pattern=pattern,
        offered_rate=offered_rate,
        duration=duration,
        injected=0,
        completed=0,
        backlogged=0,
        drain_cycles=0,
    )
    return drive_open_loop(
        sim,
        stats,
        len(addrs),
        lambda idx, tag: sim.build_memrequest(hmc_rqst_t.RD16, addrs[idx], tag),
        offered_rate=offered_rate,
        duration=duration,
        max_drain=max_drain,
        depth=depth,
    )
