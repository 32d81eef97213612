"""Windowed host issue: multiple outstanding requests per thread.

The paper's Algorithm-1 harness (and :class:`repro.host.engine.
HostEngine`) models synchronous threads — one outstanding request
each, matching a spin loop's data dependence.  Real memory pipelines
issue *windows* of independent requests (the paper's §III bandwidth
argument assumes exactly that), so this module provides
:class:`WindowedEngine`: thread programs yield a **list** of request
packets and resume with the matching list of responses once all of
them retire.

Tag allocation: thread ``t`` with window ``W`` owns tags
``t*W .. t*W+W-1``, so ``threads x W`` must fit the 11-bit tag space —
the same resource limit a real HMC host faces.

Used by the window-scaling experiment
(``benchmarks/bench_ext_window_scaling.py``): memory-level parallelism
raises delivered bandwidth until the device's response bandwidth
saturates.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro.errors import HMCSimError, HMCStatus, SimDeadlockError
from repro.faults.diagnostics import collect_deadlock_dump
from repro.hmc.packet import MAX_TAG, RequestPacket, ResponsePacket
from repro.hmc.sim import HMCSim
from repro.host.thread import ThreadCtx

__all__ = ["WindowedEngine", "WindowedResult", "BatchProgram"]

#: A windowed program: yields batches of packets, receives batches of
#: responses (None entries for posted requests).
BatchProgram = Generator[List[RequestPacket], List[Optional[ResponsePacket]], None]


class _WThread:
    """Bookkeeping for one windowed thread."""

    __slots__ = (
        "tid", "ctx", "program", "done", "to_send", "responses",
        "awaiting", "finish_cycle", "requests", "stalls",
    )

    def __init__(self, tid: int, ctx: ThreadCtx, program: BatchProgram):
        self.tid = tid
        self.ctx = ctx
        self.program = program
        self.done = False
        #: (slot, packet) pairs not yet accepted by the device.
        self.to_send: List[tuple] = []
        #: Responses collected for the current batch, by slot.
        self.responses: List[Optional[ResponsePacket]] = []
        #: Slots still awaiting a response packet.
        self.awaiting: int = 0
        self.finish_cycle: Optional[int] = None
        self.requests = 0
        self.stalls = 0

    def batch_complete(self) -> bool:
        return not self.to_send and self.awaiting == 0


class WindowedResult:
    """Aggregate outcome of a windowed run."""

    def __init__(self, total_cycles: int, requests: int, stalls: int,
                 thread_cycles: List[int]):
        self.total_cycles = total_cycles
        self.requests = requests
        self.stalls = stalls
        self.thread_cycles = thread_cycles

    @property
    def max_cycle(self) -> int:
        """Slowest thread's completion time."""
        return max(self.thread_cycles)


class WindowedEngine:
    """Drives batch-yielding programs with up to ``window`` outstanding
    requests per thread.

    Args:
        sim: the simulation context.
        window: maximum batch size (and per-thread tag allocation).
        max_cycles: runaway guard.
    """

    def __init__(self, sim: HMCSim, *, window: int = 8, max_cycles: int = 1_000_000):
        if window < 1:
            raise HMCSimError("window must be >= 1")
        self.sim = sim
        self.window = window
        self.max_cycles = max_cycles
        self.threads: List[_WThread] = []
        self._by_tag: Dict[int, tuple] = {}

    def add_thread(
        self,
        program_fn: Callable[[ThreadCtx], BatchProgram],
        *,
        link: Optional[int] = None,
        cub: int = 0,
    ) -> None:
        """Register a windowed thread (round-robin link assignment)."""
        tid = len(self.threads)
        if (tid + 1) * self.window > MAX_TAG + 1:
            raise HMCSimError(
                f"threads x window exceeds the 11-bit tag space "
                f"({tid + 1} x {self.window} > {MAX_TAG + 1})"
            )
        if link is None:
            link = tid % self.sim.config.num_links
        ctx = ThreadCtx(self.sim, tid, link, cub)
        self.threads.append(_WThread(tid, ctx, program_fn(ctx)))

    # -- internals ---------------------------------------------------------------

    def _start_batch(self, thread: _WThread, batch: Sequence[RequestPacket]) -> None:
        if len(batch) > self.window:
            raise HMCSimError(
                f"thread {thread.tid} yielded a batch of {len(batch)} "
                f"packets; the window is {self.window}"
            )
        thread.responses = [None] * len(batch)
        thread.awaiting = 0
        thread.to_send = []
        for slot, pkt in enumerate(batch):
            pkt.tag = thread.tid * self.window + slot
            thread.to_send.append((slot, pkt))

    def _advance(self, thread: _WThread, value) -> None:
        try:
            batch = thread.program.send(value)
        except StopIteration:
            thread.done = True
            thread.finish_cycle = self.sim.cycle
            return
        self._start_batch(thread, list(batch))

    def _pump_sends(self, thread: _WThread) -> None:
        still: List[tuple] = []
        for slot, pkt in thread.to_send:
            status = self.sim.send(pkt, dev=thread.ctx.cub, link=thread.ctx.link)
            if status is HMCStatus.STALL:
                thread.stalls += 1
                still.append((slot, pkt))
                continue
            thread.requests += 1
            if self.sim.expects_response(pkt):
                self._by_tag[pkt.tag] = (thread, slot)
                thread.awaiting += 1
        thread.to_send = still

    def run(self) -> WindowedResult:
        """Run every thread to completion.

        Raises:
            HMCSimError: if the workload exceeds ``max_cycles``.
        """
        start = self.sim.cycle
        for thread in self.threads:
            self._advance(thread, None)

        deadline = start + self.max_cycles
        while True:
            live = [t for t in self.threads if not t.done]
            if not live:
                break
            if self.sim.cycle >= deadline:
                stuck = sorted(self._by_tag)
                raise SimDeadlockError(
                    f"windowed workload did not complete within "
                    f"{self.max_cycles} cycles",
                    dump=collect_deadlock_dump(
                        self.sim,
                        extra={
                            f"awaiting slots ({len(stuck)})": " ".join(
                                f"tag{t}" for t in stuck[:32]
                            )
                            or "<none>"
                        },
                    ),
                )
            for thread in live:
                if thread.to_send:
                    self._pump_sends(thread)
                if thread.batch_complete() and not thread.done:
                    self._advance(thread, thread.responses)
                    if thread.to_send:
                        self._pump_sends(thread)
            self.sim.clock()
            for dev in range(self.sim.config.num_devs):
                for link in range(self.sim.config.num_links):
                    while True:
                        rsp = self.sim.recv(dev=dev, link=link)
                        if rsp is None:
                            break
                        entry = self._by_tag.pop(rsp.tag, None)
                        if entry is None:
                            raise HMCSimError(
                                f"response tag {rsp.tag} matches no outstanding slot"
                            )
                        thread, slot = entry
                        thread.responses[slot] = rsp
                        thread.awaiting -= 1

        return WindowedResult(
            total_cycles=self.sim.cycle - start,
            requests=sum(t.requests for t in self.threads),
            stalls=sum(t.stalls for t in self.threads),
            thread_cycles=[
                (t.finish_cycle or start) - start for t in self.threads
            ],
        )
