"""Fixed-depth queues with HMC-Sim stall semantics.

Every queueing structure in the device — vault request queues and the
logic-layer crossbar request/response queues — is a bounded FIFO.  A
push into a full queue does not raise: it reports a *stall*, which the
caller (host or upstream pipeline stage) observes and retries on a
later cycle.  This is exactly the contract of ``hmcsim_send`` returning
``HMC_STALL``, and it is the mechanism behind the queue-pressure
effects in the paper's Figures 5-7.

Each queue counts pushes, pops, and stalls, and tracks a high-water
mark, feeding both the trace subsystem and the statistics used by the
ablation benchmark (E9 in DESIGN.md).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Iterator, Optional, TypeVar

from repro.hmc.components import Stateful

__all__ = ["StallQueue"]

T = TypeVar("T")


class StallQueue(Stateful, Generic[T]):
    """A bounded FIFO that reports stalls instead of raising when full.

    The cycle engine treats this as a record: each hop of the datapath
    (``Device.send``, the three clock phases, the vault scan) works on
    ``_q`` and the counters in its own frame, a run of entries at a
    time.  :meth:`push` and :meth:`pop` are the semantics those inlined
    bodies cite and must equal — and the path cold callers take.

    Args:
        depth: maximum number of in-flight entries (slots).
        name: label used in traces and statistics.
    """

    __slots__ = ("depth", "name", "_q", "pushes", "pops", "stalls", "high_water")
    STATE = {"pushes": 0, "pops": 0, "stalls": 0, "high_water": 0}

    def __init__(self, depth: int, name: str = "queue"):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self.name = name
        self._q: Deque[T] = deque()
        self.pushes = 0
        self.pops = 0
        self.stalls = 0
        self.high_water = 0

    def push(self, item: T) -> bool:
        """Append ``item``; return False (and count a stall) if full."""
        q = self._q
        n = len(q) + 1
        if n > self.depth:
            self.stalls += 1
            return False
        q.append(item)
        self.pushes += 1
        if n > self.high_water:
            self.high_water = n
        return True

    def pop(self) -> Optional[T]:
        """Remove and return the head entry, or None if empty."""
        if not self._q:
            return None
        self.pops += 1
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)

    def __iter__(self) -> Iterator[T]:
        return iter(self._q)

    def clear(self) -> None:
        """Drop all entries (statistics are preserved)."""
        self._q.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StallQueue({self.name!r}, {len(self._q)}/{self.depth}, "
            f"stalls={self.stalls})"
        )
