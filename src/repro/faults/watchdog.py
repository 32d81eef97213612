"""Per-tag watchdog: timeout, bounded retransmit, exponential backoff.

The host-side half of surviving response-destroying faults.  Whenever
a thread enters its WAITING state the engine *arms* the watchdog with
the request packet; a received response *disarms* it.  Once per engine
cycle :meth:`TagWatchdog.poll` surfaces the tags whose deadline has
passed so the engine can retransmit them — each timeout doubles (by
``backoff``) the next deadline, and a tag that stays unanswered after
``max_retries`` retransmissions is reported as exhausted, which the
engine turns into a :class:`~repro.errors.SimDeadlockError` carrying a
full :class:`~repro.hmc.sim.DeadlockDump`.

The watchdog is pure mechanism: it tracks deadlines and attempt
counts but never touches the simulation — retransmission itself
(clearing the outstanding tag, re-injecting the packet) is the
engine's job, because only the engine owns thread state.

Implementation: a deadline min-heap with lazy invalidation.  Arming a
tag bumps its serial; stale heap entries (disarmed, or re-armed with a
newer serial) are skipped on pop, so arm/disarm are O(log n) and a
quiet poll is O(1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FaultError

__all__ = ["TagWatchdog", "ArmedTag"]


@dataclass
class ArmedTag:
    """One armed (in-flight, response expected) tag."""

    tag: int
    packet: Any
    dev: int
    link: int
    #: Retransmissions already performed for this tag.
    attempts: int
    deadline: int
    serial: int


class TagWatchdog:
    """Deadline tracking for every in-flight tag of one host engine.

    Args:
        timeout: cycles a response may take before the first
            retransmission.  Must comfortably exceed the workload's
            worst-case legitimate latency — a premature timeout wastes
            a retransmission (the protocol still converges: the late
            response is consumed and the retransmitted one is
            tolerated as a duplicate).
        max_retries: retransmissions allowed per tag before the tag is
            declared dead (:meth:`exhausted`).
        backoff: multiplier applied to the timeout per attempt —
            deadline = ``timeout * backoff ** attempts``.
    """

    def __init__(
        self,
        *,
        timeout: int = 4096,
        max_retries: int = 4,
        backoff: float = 2.0,
    ):
        if timeout < 1:
            raise FaultError(f"watchdog timeout must be >= 1 cycle, got {timeout}")
        if max_retries < 0:
            raise FaultError(f"watchdog max_retries must be >= 0, got {max_retries}")
        if backoff < 1.0:
            raise FaultError(f"watchdog backoff must be >= 1.0, got {backoff}")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._armed: Dict[int, ArmedTag] = {}
        #: Attempt counts survive the arm/poll/re-arm cycle and are
        #: only reset when a response finally disarms the tag.
        self._attempts: Dict[int, int] = {}
        self._heap: List[Tuple[int, int, int]] = []
        self._serial = 0
        # Counters for stats() and tests.
        self.timeouts = 0
        self.retransmits = 0

    # -- arming ------------------------------------------------------------------

    def arm(self, tag: int, packet: Any, *, dev: int, link: int, cycle: int) -> None:
        """Start (or restart, after a retransmission) the clock on ``tag``."""
        attempts = self._attempts.get(tag, 0)
        deadline = cycle + int(self.timeout * (self.backoff ** attempts))
        self._serial += 1
        entry = ArmedTag(
            tag=tag, packet=packet, dev=dev, link=link,
            attempts=attempts, deadline=deadline, serial=self._serial,
        )
        self._armed[tag] = entry
        heapq.heappush(self._heap, (deadline, self._serial, tag))

    def disarm(self, tag: int) -> None:
        """A response for ``tag`` arrived: stop its clock, forget its
        attempt history.  Unknown tags are ignored (duplicate
        responses disarm twice)."""
        self._armed.pop(tag, None)
        self._attempts.pop(tag, None)

    # -- expiry -------------------------------------------------------------------

    def poll(self, cycle: int) -> List[ArmedTag]:
        """Tags whose deadline has passed, removed from tracking.

        Each returned entry has its attempt count *already charged*
        (``entry.attempts`` is the count before this timeout; the next
        :meth:`arm` of the same tag backs off further).  The caller
        decides: retransmit and re-arm, or — when :meth:`exhausted`
        says the budget is spent — escalate to a deadlock error.
        """
        out: List[ArmedTag] = []
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            _deadline, serial, tag = heapq.heappop(heap)
            entry = self._armed.get(tag)
            if entry is None or entry.serial != serial:
                continue  # disarmed or re-armed since: stale heap entry
            del self._armed[tag]
            self._attempts[tag] = entry.attempts + 1
            self.timeouts += 1
            out.append(entry)
        return out

    def exhausted(self, entry: ArmedTag) -> bool:
        """True when ``entry`` has spent its retransmission budget."""
        return entry.attempts >= self.max_retries

    def note_retransmit(self) -> None:
        """Count one retransmission performed by the engine."""
        self.retransmits += 1

    def reset(self) -> None:
        """Forget every armed tag, attempt history, and counter.

        Called by the host engine at each run entrypoint so a reused
        engine (and therefore a reused watchdog) starts every run with
        fresh statistics — without this, a second ``run()`` reports the
        first run's ``retransmits`` in its result.
        """
        self._armed.clear()
        self._attempts.clear()
        self._heap.clear()
        self.timeouts = 0
        self.retransmits = 0

    # -- inspection ---------------------------------------------------------------

    def next_deadline(self) -> Optional[int]:
        """Earliest live deadline, or ``None`` when nothing is armed.

        Lets an idle caller (the differential runner, whose context
        fast-forwards quiescent cycles in O(1)) jump straight to the
        next expiry instead of clocking through the wait.  Stale heap
        entries encountered on the way are discarded.
        """
        heap = self._heap
        while heap:
            deadline, serial, tag = heap[0]
            entry = self._armed.get(tag)
            if entry is None or entry.serial != serial:
                heapq.heappop(heap)
                continue
            return deadline
        return None

    def stats(self) -> Dict[str, int]:
        """Counters for result records and per-seed fuzz summaries."""
        return {
            "armed": len(self._armed),
            "timeouts": self.timeouts,
            "retransmits": self.retransmits,
        }

    def pending(self) -> Tuple[int, ...]:
        """Currently armed tags, sorted."""
        return tuple(sorted(self._armed))

    def __len__(self) -> int:
        return len(self._armed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TagWatchdog(armed={len(self._armed)}, timeouts={self.timeouts}, "
            f"retransmits={self.retransmits})"
        )
