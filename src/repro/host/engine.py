"""The cycle-driven host engine.

Multiplexes any number of simulated threads onto a simulation context:
each engine cycle (= one device cycle)

1. every READY thread attempts to inject its pending request on its
   link (a full crossbar queue keeps it READY — the ``HMC_STALL``
   retry loop of the C harnesses);
2. the context clocks once;
3. every link is drained of retired responses, which are routed back
   to their issuing thread by tag; resumed threads may produce and
   inject their next request *within the same cycle*, which is what
   makes the paper's uncontended Algorithm-1 fast path cost exactly
   6 cycles (3 per round trip, two round trips).

A program that yields lists of packets keeps each list in flight
together (a :class:`~repro.host.thread.BatchThread`, the paper's §III
bandwidth argument); phase 1 injects its next batch.

The engine reports per-thread completion cycles and the paper's
MIN/MAX/AVG statistics (§V.B: MIN_CYCLE, MAX_CYCLE, AVG_CYCLE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import HMCSimError, SimDeadlockError
from repro.faults.diagnostics import collect_deadlock_dump
from repro.faults.invariants import InvariantChecker
from repro.faults.watchdog import TagWatchdog
from repro.hmc.packet import MAX_TAG
from repro.hmc.sim import _EXPECTS, _STALL, HMCSim
from repro.host.thread import BatchThread, Program, SimThread, ThreadCtx, ThreadState

__all__ = ["HostEngine", "EngineResult", "ThreadResult"]

#: Sort key restoring the seed engine's tid-order injection scan.
_BY_TID = attrgetter("tid")
_WAITING = ThreadState.WAITING


@dataclass(frozen=True)
class ThreadResult:
    """Completion record for one simulated thread."""

    tid: int
    link: int
    cycles: int
    requests: int
    stalls: int
    responses: int


@dataclass
class EngineResult:
    """Outcome of one engine run.

    ``min_cycle`` / ``max_cycle`` / ``avg_cycle`` are the §V.B
    statistics: the minimum, maximum, and average number of cycles any
    thread required to perform the algorithm.
    """

    threads: List[ThreadResult] = field(default_factory=list)
    total_cycles: int = 0
    send_stalls: int = 0
    #: Watchdog retransmissions performed during the run.
    retransmits: int = 0
    #: Responses tolerated as duplicates (fault duplication, or a late
    #: response racing its own retransmission).
    duplicate_rsps: int = 0
    #: Completed invariant-checker passes (0 when checking is off).
    invariant_checks: int = 0
    #: Shadow-oracle comparisons performed (0 when sampling is off).
    oracle_checks: int = 0

    @property
    def min_cycle(self) -> int:
        """MIN_CYCLE: fastest thread's completion time."""
        return min(t.cycles for t in self.threads)

    @property
    def max_cycle(self) -> int:
        """MAX_CYCLE: slowest thread's completion time."""
        return max(t.cycles for t in self.threads)

    @property
    def avg_cycle(self) -> float:
        """AVG_CYCLE: mean completion time across threads."""
        return sum(t.cycles for t in self.threads) / len(self.threads)


class HostEngine:
    """Drives a set of thread programs against one simulation context.

    Args:
        sim: the simulation context.
        max_cycles: safety bound; exceeding it raises
            :class:`~repro.errors.SimDeadlockError` with a diagnostic
            dump (a deadlocked workload would otherwise spin forever).
        watchdog: optional :class:`~repro.faults.watchdog.TagWatchdog`.
            When given, every response-expecting send arms a deadline;
            a timed-out tag is retransmitted (bounded, with exponential
            backoff) and an exhausted tag raises ``SimDeadlockError``.
        invariants: ``True`` (build an
            :class:`~repro.faults.invariants.InvariantChecker` for
            ``sim``) or a ready checker.  When set, every engine cycle
            verifies tag/token conservation and queue bounds.
        oracle_sample: when set to ``N``, roughly one in ``N``
            response-expecting requests is shadow-executed against the
            functional reference model
            (:mod:`repro.host.shadow`); a disagreement raises
            :class:`~repro.errors.OracleDivergenceError`.  Rejected
            when ``sim`` has a fault plan attached — faults diverge
            from the functional contract by design.
        window: the most packets one batch may hold; thread ``t`` owns
            tags ``t*window .. t*window+window-1``.  A batch is refused
            beside ``watchdog``, ``oracle_sample`` or a recorder.
    """

    def __init__(
        self,
        sim: HMCSim,
        *,
        max_cycles: int = 1_000_000,
        watchdog: Optional[TagWatchdog] = None,
        invariants: Union[bool, InvariantChecker, None] = None,
        oracle_sample: Optional[int] = None,
        window: int = 1,
    ):
        if window < 1:
            raise HMCSimError("window must be >= 1")
        self.sim = sim
        self.window = window
        self.max_cycles = max_cycles
        self.watchdog = watchdog
        if invariants is True:
            invariants = InvariantChecker(sim)
        elif invariants is False:
            invariants = None
        self.invariants = invariants
        #: Tolerate responses for non-waiting threads (duplication
        #: faults, late responses racing their own retransmission)
        #: instead of raising — on whenever the run can produce them.
        self.resilient = watchdog is not None or sim.faults is not None
        self.duplicate_rsps = 0
        #: Online sampled oracle (see :mod:`repro.host.shadow`).  The
        #: import is deferred so engine users that never sample don't
        #: pay for the oracle stack.
        self.shadow = None
        if oracle_sample is not None:
            from repro.host.shadow import ShadowOracle

            self.shadow = ShadowOracle(sim, oracle_sample)
        #: Optional trace recorder (``on_send(cycle, thread, pkt)`` per
        #: accepted send, ``on_result(result)`` at completion) — one
        #: ``None``-check per send when unset.  See
        #: :class:`repro.workloads.replay.TraceRecorder`.
        self.recorder = None
        self.threads: List[SimThread] = []
        self._by_tag: Dict[int, SimThread] = {}

    def add_thread(
        self,
        program_fn: Callable[[ThreadCtx], Program],
        *,
        link: Optional[int] = None,
        cub: int = 0,
    ) -> SimThread:
        """Create a thread running ``program_fn(ctx)``.

        Threads are assigned round-robin to links unless ``link`` is
        given — the distribution the paper's simulations use.
        """
        tid = len(self.threads)
        if (tid + 1) * self.window > MAX_TAG + 1:
            raise HMCSimError(
                f"threads x window exceeds the 11-bit tag space "
                f"({tid + 1} x {self.window} > {MAX_TAG + 1})"
            )
        if link is None:
            link = tid % self.sim.config.num_links
        ctx = ThreadCtx(self.sim, tid, link, cub, tag=tid * self.window)
        thread = SimThread(tid, ctx, program_fn(ctx))
        self.threads.append(thread)
        self._by_tag[ctx.tag] = thread
        return thread

    def add_threads(
        self,
        n: int,
        program_fn: Callable[[ThreadCtx], Program],
        *,
        cub: int = 0,
    ) -> List[SimThread]:
        """Add ``n`` identical threads (round-robin links)."""
        return [self.add_thread(program_fn, cub=cub) for _ in range(n)]

    # -- the engine loop ------------------------------------------------------

    def _try_send(self, thread: SimThread, cycle: int) -> None:
        """Inject a READY thread's pending packet; resume posted sends.

        ``cycle`` is the current cycle, which the run loop reads once
        per phase; it timestamps recorder entries, watchdog deadlines
        and posted-send resumes.
        """
        pkt = thread.pending
        assert pkt is not None
        shadow = self.shadow
        if shadow is not None:
            held = shadow.held
            if held is not None:
                # A hold window is open: only the sampled thread may
                # inject, and only once the expectation is computed
                # (i.e. the context quiesced).  Everyone else keeps
                # their packet pending and retries next cycle.
                if thread is not held or shadow.expect is None:
                    return
            elif shadow.maybe_hold(thread):
                return
        sim = self.sim
        ctx = thread.ctx
        if sim.send(pkt, dev=ctx.cub, link=ctx.link) is _STALL:
            thread.stalls += 1
            return
        thread.requests += 1
        thread.pending = None
        if self.recorder is not None:
            self.recorder.on_send(cycle, thread, pkt)
        # HMCSim.expects_response, answered from the context's
        # epoch-keyed CMC memo that ``send`` has just consulted.
        cmd = pkt.cmd
        expects = _EXPECTS[cmd]
        if expects is None and (
            sim._cmc_expects_epoch != sim.cmc.epoch
            or (expects := sim._cmc_expects.get(cmd)) is None
        ):
            expects = sim.expects_response(pkt)
        if expects:
            thread.state = _WAITING
            if shadow is not None:
                shadow.note_send(pkt)
            if self.watchdog is not None:
                self.watchdog.arm(
                    pkt.tag, pkt, dev=ctx.cub, link=ctx.link, cycle=cycle
                )
        else:
            # Posted: the program resumes with None and may produce its
            # next request, injected on a later cycle.
            thread.resume(None, cycle)

    def _send_batch(self, thread: BatchThread, cycle: int) -> None:
        """Inject a batch thread's unsent packets in slot order; a
        stalled one retries next cycle.  A batch with nothing to send
        or await (all posted) resumes the program at once."""
        sim, ctx = self.sim, thread.ctx
        unsent = []
        for pkt in thread.unsent:
            if sim.send(pkt, dev=ctx.cub, link=ctx.link) is _STALL:
                thread.stalls += 1
                unsent.append(pkt)
                continue
            thread.requests += 1
            if sim.expects_response(pkt):
                thread.awaiting.add(pkt.tag)
        thread.unsent = unsent
        thread.state = _WAITING
        thread.resume(None, cycle)  # resumes the program only if all posted

    def run(self) -> EngineResult:
        """Run until every thread completes; return the statistics.

        Raises:
            HMCSimError: if the workload does not complete within
                ``max_cycles`` cycles.
        """
        # A reused engine must not leak the previous run's resilience
        # statistics into this run's result.
        if self.watchdog is not None:
            self.watchdog.reset()
        self.duplicate_rsps = 0
        shadow = self.shadow
        if shadow is not None:
            shadow.begin_run()

        batched: List[BatchThread] = []  # batch threads with packets to inject
        for i, thread in enumerate(self.threads):
            thread.start_cycle = self.sim.cycle
            thread.resume(None, thread.start_cycle)  # the first request
            if type(thread.pending) is list:  # the first yield decides, once
                if any(x is not None for x in (self.watchdog, shadow, self.recorder)):
                    raise HMCSimError(
                        f"thread {thread.tid} yielded a batch: watchdog, "
                        f"oracle_sample and recorder drive one-request threads only"
                    )
                self.threads[i] = thread = BatchThread(thread, self.window)
                for slot in range(self.window):
                    self._by_tag[thread.ctx.tag + slot] = thread
                batched.append(thread)

        start = self.sim.cycle
        deadline = start + self.max_cycles
        # The live list persists across cycles and is pruned only on the
        # cycles where some thread actually finished; re-filtering all
        # threads every cycle is O(threads) of pure overhead on long
        # contended runs where the population changes rarely.
        live = [t for t in self.threads if not t.done]
        num_devs = self.sim.config.num_devs
        num_links = self.sim.config.num_links
        READY = ThreadState.READY
        # Threads that may inject at the next phase 1: sends that
        # stalled stay in the list, threads resumed during phase 3 with
        # a new pending request are appended.  Everything else is
        # WAITING and cannot become injectable without a response, so
        # scanning the whole live list every cycle is unnecessary —
        # only the iteration order (thread id, the seed engine's full
        # scan order) has to be restored before injecting.
        inject = [t for t in live if t.state is READY and t.pending is not None]
        # ``inject`` is kept sorted by tid across cycles: the initial
        # population is in tid order (``self.threads`` is), and the
        # phase-1 scan compacts it in place, which preserves order.
        # Only phase-3/watchdog appends can break it, so they set the
        # dirty flag and the sort runs on the cycles that need it
        # instead of every cycle of a long contended run.
        inject_dirty = False
        by_tid = _BY_TID
        sim = self.sim
        by_tag = self._by_tag
        WAITING = ThreadState.WAITING
        wd = self.watchdog
        checker = self.invariants
        resilient = self.resilient
        while live:
            cyc = sim.cycle
            if cyc >= deadline:
                raise SimDeadlockError(
                    f"workload did not complete within {self.max_cycles} cycles "
                    f"({len(live)} threads still running)",
                    dump=collect_deadlock_dump(sim, extra=self._thread_dump(live)),
                )
            finished = False
            # Phase 0 (sampling, only while a hold window is draining):
            # once nothing is waiting and the context is idle, the
            # sampled request's footprint is stable — synchronize the
            # oracle and compute the expectation; phase 1 then injects
            # the sampled packet alone.
            if (
                shadow is not None
                and shadow.held is not None
                and shadow.expect is None
                and sim.idle()
                and not any(t.state is WAITING for t in live)
            ):
                shadow.prepare()
            # Phase 1: inject pending requests (tid order, as the full
            # thread scan would visit them).
            if inject:
                if inject_dirty:
                    if len(inject) > 1:
                        inject.sort(key=by_tid)
                    inject_dirty = False
                # Compact in place: threads that stalled (or chained a
                # posted send) stay, everything else is dropped — no
                # per-cycle retry-list allocation.
                keep = 0
                for thread in inject:
                    self._try_send(thread, cyc)
                    if thread.done:
                        finished = True
                    elif thread.state is READY and thread.pending is not None:
                        inject[keep] = thread
                        keep += 1
                del inject[keep:]
            if batched:
                batched.sort(key=by_tid)
                for thread in batched:
                    self._send_batch(thread, cyc)
                    finished = finished or thread.done
                batched = [t for t in batched if t.unsent or t.state is READY]
            # Phase 2: one device cycle.
            sim.clock()
            cyc = sim.cycle
            # Phase 3: drain responses, resume threads, same-cycle
            # reissue.  Each link's completed responses come out as one
            # ``recv_batch`` vector per cycle: responses only appear
            # during ``sim.clock``, so nothing can land in the retire
            # buffer mid-drain and the vector is exactly what one
            # ``recv`` per response would pop
            # (``tests/host/test_batched_retirement.py`` pins it).
            for dev in range(num_devs):
                links = sim.devices[dev].links
                for link in range(num_links):
                    if not links[link].retired:
                        # Nothing to collect: skip the recv call.
                        continue
                    for rsp in sim.recv_batch(dev=dev, link=link):
                        if resilient:
                            # recv_batch discharged the whole vector up
                            # front.  A duplicated response that follows
                            # a same-cycle reissue of its tag must
                            # consume the reissue's outstanding entry,
                            # as a response popped one at a time would;
                            # without this re-discard the reissued
                            # thread's next send raises TagError.
                            sim._outstanding.discard(
                                (rsp.cub << 11) | rsp.tag
                            )
                        thread = by_tag.get(rsp.tag)
                        if thread is None or thread.state is not WAITING:
                            if resilient:
                                # A duplicated response, or a late
                                # response racing its own watchdog
                                # retransmission: consume and move on.
                                self.duplicate_rsps += 1
                                continue
                            raise HMCSimError(
                                f"response tag {rsp.tag} does not match a waiting thread"
                            )
                        if wd is not None:
                            wd.disarm(rsp.tag)
                        if shadow is not None and shadow.held is thread:
                            # The sampled response: raises
                            # OracleDivergenceError on disagreement,
                            # closes the hold window otherwise.
                            shadow.verify(rsp)
                        thread.resume(rsp, cyc)
                        if thread.done:
                            finished = True
                        elif thread.state is READY and thread.pending is not None:
                            self._try_send(thread, cyc)
                            if thread.done:
                                finished = True
                            elif (
                                thread.state is READY
                                and thread.pending is not None
                            ):
                                # Same-cycle reissue stalled (or chained
                                # a posted send): retry next phase 1.
                                inject.append(thread)
                                inject_dirty = True
                        elif thread.state is READY:
                            batched.append(thread)  # a batch thread's next batch
            # Phase 4 (resilience, only when configured): retransmit
            # timed-out tags, then verify conservation invariants.
            if wd is not None:
                for entry in wd.poll(cyc):
                    if wd.exhausted(entry):
                        extra = self._thread_dump(live)
                        lost_kind = None
                        if sim.faults is not None:
                            lost_kind = sim.faults.lost_tags.get(
                                (entry.packet.cub, entry.tag)
                            )
                        extra["exhausted tag"] = (
                            f"tag {entry.tag} (dev {entry.packet.cub}) "
                            f"after {entry.attempts} retransmission(s)"
                            + (
                                f", last lost to fault {lost_kind!r}"
                                if lost_kind
                                else ""
                            )
                        )
                        raise SimDeadlockError(
                            f"workload did not complete: tag {entry.tag} "
                            f"still unanswered after {entry.attempts} "
                            f"retransmission(s)",
                            dump=collect_deadlock_dump(sim, extra=extra),
                        )
                    thread = by_tag.get(entry.tag)
                    if thread is None or thread.state is not WAITING:
                        continue  # answered in this very drain phase
                    # Forget the outstanding tag (and any fault-lost
                    # record), hand the packet back to the thread, and
                    # let the normal inject path retransmit it.
                    sim.abandon_tag(entry.packet.cub, entry.tag)
                    wd.note_retransmit()
                    thread.pending = entry.packet
                    thread.state = READY
                    inject.append(thread)
                    inject_dirty = True
            if checker is not None:
                checker.check(cyc)
            if finished:
                live = [t for t in live if not t.done]

        result = EngineResult(total_cycles=self.sim.cycle - start)
        for thread in self.threads:
            assert thread.finish_cycle is not None
            result.threads.append(
                ThreadResult(
                    tid=thread.tid,
                    link=thread.ctx.link,
                    cycles=thread.finish_cycle - thread.start_cycle,
                    requests=thread.requests,
                    stalls=thread.stalls,
                    responses=thread.responses,
                )
            )
            result.send_stalls += thread.stalls
        if wd is not None:
            result.retransmits = wd.retransmits
        result.duplicate_rsps = self.duplicate_rsps
        if shadow is not None:
            result.oracle_checks = shadow.checks
        if checker is not None:
            result.invariant_checks = checker.checks
        if self.recorder is not None:
            self.recorder.on_result(result)
        return result

    def _thread_dump(self, live: Sequence[SimThread]) -> Dict[str, str]:
        """Thread-state context for a deadlock dump: names every stuck
        thread and the tags it is waiting on."""
        shown = []
        for t in live[:32]:
            tags = sorted(t.awaiting) if type(t) is BatchThread else [t.ctx.tag]
            waiting = t.state is _WAITING and tags
            tag = f"(tag={','.join(map(str, tags))})" if waiting else ""
            shown.append(f"tid{t.tid}:{t.state.name}{tag}")
        if len(live) > 32:
            shown.append(f"... (+{len(live) - 32} more)")
        summary = " ".join(shown) if shown else "<none>"
        return {f"stuck threads ({len(live)})": summary}
