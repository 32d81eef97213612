"""Simulated host threads.

A thread's *program* is a Python generator: it ``yield``s request
packets and receives the matching response packet back at the yield
point (or ``None`` for posted requests).  The engine owns the clock;
the generator only expresses the algorithm, e.g. the paper's
Algorithm 1::

    def program(ctx):
        rsp = yield ctx.lock(LOCK_ADDR)
        if decode_lock_response(rsp.data) == 1:
            yield ctx.unlock(LOCK_ADDR)
        else:
            while True:
                rsp = yield ctx.trylock(LOCK_ADDR)
                if decode_lock_response(rsp.data) == ctx.tid_value:
                    break
            yield ctx.unlock(LOCK_ADDR)

A program that yields *lists* of packets runs as a :class:`BatchThread`.

:class:`ThreadCtx` provides packet builders bound to the thread's
identity (tag and thread-id payload value), so programs never manage
tags themselves.
"""

from __future__ import annotations

import enum
from typing import Generator, Iterator, List, Optional, Set

from repro.cmc_ops import mutex as _mutex
from repro.errors import HMCSimError
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.packet import RequestPacket
from repro.hmc.sim import HMCSim

__all__ = ["ThreadState", "ThreadCtx", "SimThread", "BatchThread", "Program"]

#: A thread program: a generator yielding request packets.
Program = Generator[RequestPacket, Optional[object], None]


class ThreadState(enum.Enum):
    """Issue state of a simulated thread."""

    READY = "ready"  # has a packet pending injection (or retrying a stall)
    WAITING = "waiting"  # packet accepted, awaiting its response
    DONE = "done"  # program finished


#: Read once per response; an Enum member attribute lookup costs more
#: than the rest of ``SimThread.resume``'s bookkeeping.
_READY = ThreadState.READY


class ThreadCtx:
    """Per-thread request builders handed to thread programs.

    Attributes:
        tid: 0-based thread index.
        tid_value: the thread/task id written into lock structures and
            compared against trylock responses.  ``tid + 1`` so that a
            valid owner id is never 0 (0 means "no owner" in the
            initialized lock structure).
        link: device link this thread injects on.
        cub: target cube for all of this thread's requests.
        tag: the tag of every built packet (``tid`` unless the
            engine's window gives each thread several).
    """

    def __init__(
        self, sim: HMCSim, tid: int, link: int, cub: int = 0, tag: Optional[int] = None
    ):
        self.sim = sim
        self.tid = tid
        self.tid_value = tid + 1
        self.link = link
        self.cub = cub
        self.tag = tid if tag is None else tag
        # Mutex packets are immutable per (op, addr) for a given
        # thread — same tag, tid payload, cub, and link — and a thread
        # never has two requests in flight, so the spin loop of
        # Algorithm 1 can reissue one cached packet instead of
        # rebuilding it every trylock.  (The device only ever writes
        # ``slid``, which is the same link each reissue.)
        self._mutex_cache: dict = {}

    # -- mutex CMC operations (Table V) --------------------------------------

    def lock(self, addr: int) -> RequestPacket:
        """Build an ``hmc_lock`` (CMC125) request."""
        key = ("lock", addr)
        pkt = self._mutex_cache.get(key)
        if pkt is None:
            pkt = self._mutex_cache[key] = _mutex.build_lock(
                self.sim, addr, self.tag, self.tid_value, cub=self.cub
            )
        return pkt

    def trylock(self, addr: int) -> RequestPacket:
        """Build an ``hmc_trylock`` (CMC126) request."""
        key = ("trylock", addr)
        pkt = self._mutex_cache.get(key)
        if pkt is None:
            pkt = self._mutex_cache[key] = _mutex.build_trylock(
                self.sim, addr, self.tag, self.tid_value, cub=self.cub
            )
        return pkt

    def unlock(self, addr: int) -> RequestPacket:
        """Build an ``hmc_unlock`` (CMC127) request."""
        key = ("unlock", addr)
        pkt = self._mutex_cache.get(key)
        if pkt is None:
            pkt = self._mutex_cache[key] = _mutex.build_unlock(
                self.sim, addr, self.tag, self.tid_value, cub=self.cub
            )
        return pkt

    # -- generic commands ------------------------------------------------------
    # Only ``request``, which may carry a CMC code, needs the context's
    # registry; the rest call ``RequestPacket.build`` straight.

    def request(self, rqst: hmc_rqst_t, addr: int, data: bytes = b"") -> RequestPacket:
        """Build any request with this thread's tag."""
        return self.sim.build_memrequest(rqst, addr, self.tag, cub=self.cub, data=data)

    def read(self, addr: int, nbytes: int = 16) -> RequestPacket:
        """Build an RD16..RD256 request for ``nbytes`` (16-byte granule)."""
        rqst = _READ_CMDS.get(nbytes)
        if rqst is None:
            raise _granule_error("read", nbytes)
        if not self.sim._initialized:
            self.sim._check_init()
        return RequestPacket.build(rqst, addr, self.tag, cub=self.cub)

    def write(self, addr: int, data: bytes, posted: bool = False) -> RequestPacket:
        """Build a WR/P_WR request sized to ``data``."""
        pair = _WRITE_CMDS.get(len(data))
        if pair is None:
            raise _granule_error("write", len(data))
        if not self.sim._initialized:
            self.sim._check_init()
        return RequestPacket.build(
            pair[1] if posted else pair[0], addr, self.tag, cub=self.cub, data=data
        )

    def inc8(self, addr: int, posted: bool = False) -> RequestPacket:
        """Build an INC8/P_INC8 atomic increment."""
        if not self.sim._initialized:
            self.sim._check_init()
        return RequestPacket.build(
            _P_INC8 if posted else _INC8, addr, self.tag, cub=self.cub
        )

    def xor16(self, addr: int, operand: bytes) -> RequestPacket:
        """Build a XOR16 atomic."""
        if not self.sim._initialized:
            self.sim._check_init()
        return RequestPacket.build(_XOR16, addr, self.tag, cub=self.cub, data=operand)

    def caseq8(self, addr: int, compare: int, swap: int) -> RequestPacket:
        """Build a CASEQ8 atomic (compare low word, swap high word)."""
        payload = (compare & _M64).to_bytes(8, "little") + (swap & _M64).to_bytes(
            8, "little"
        )
        if not self.sim._initialized:
            self.sim._check_init()
        return RequestPacket.build(_CASEQ8, addr, self.tag, cub=self.cub, data=payload)


_M64 = (1 << 64) - 1
#: Enum member reads hoisted off the per-request path.
_INC8, _P_INC8 = hmc_rqst_t.INC8, hmc_rqst_t.P_INC8
_XOR16, _CASEQ8 = hmc_rqst_t.XOR16, hmc_rqst_t.CASEQ8

#: Read and write sizes (bytes) with an RDn / WRn / P_WRn command.
_GRANULES = (16, 32, 48, 64, 80, 96, 112, 128, 256)
_READ_CMDS = {n: hmc_rqst_t[f"RD{n}"] for n in _GRANULES}
_WRITE_CMDS = {n: (hmc_rqst_t[f"WR{n}"], hmc_rqst_t[f"P_WR{n}"]) for n in _GRANULES}


def _granule_error(kind: str, nbytes: int) -> ValueError:
    return ValueError(f"{kind} size {nbytes} is not an HMC granule {list(_GRANULES)}")


class SimThread:
    """One simulated unit of parallelism and its issue state machine."""

    def __init__(self, tid: int, ctx: ThreadCtx, program: Iterator):
        self.tid = tid
        self.ctx = ctx
        self.program: Program = program
        self.state = ThreadState.READY
        self.pending: Optional[RequestPacket] = None
        #: True once the program has completed.  A plain attribute
        #: (kept in sync with ``state``) — the engine checks it after
        #: every resume, so it must not cost a property call.
        self.done = False
        self.start_cycle = 0
        self.finish_cycle: Optional[int] = None
        # Statistics.
        self.requests = 0
        self.stalls = 0
        self.responses = 0

    def resume(self, rsp: Optional[object], cycle: int) -> None:
        """Deliver a response (or None for posted) and fetch the next
        request; ``resume(None, start_cycle)`` primes the program."""
        if rsp is not None:
            self.responses += 1
        try:
            self.pending = self.program.send(rsp)
            self.state = _READY
        except StopIteration:
            self.pending = None
            self.state = ThreadState.DONE
            self.done = True
            self.finish_cycle = cycle


class BatchThread(SimThread):
    """A thread whose program yields lists of up to ``window`` packets.

    Slot ``s`` carries tag ``ctx.tag + s``.  Once every slot is sent
    and answered, the program resumes with the responses in slot order
    (``None`` for a posted slot).  ``pending`` stays ``None``: a READY
    batch thread holds a batch the engine has yet to inject.
    """

    def __init__(self, thread: SimThread, window: int):
        super().__init__(thread.tid, thread.ctx, thread.program)
        self.start_cycle = thread.start_cycle
        self.window = window
        #: Tags of accepted packets still awaiting their response.
        self.awaiting: Set[int] = set()
        self._begin(thread.pending)

    def _begin(self, batch: List[RequestPacket]) -> None:
        if type(batch) is not list:
            raise HMCSimError(f"thread {self.tid} yielded {type(batch).__name__} "
                              f"after a batch; its first yield fixes its kind")
        if len(batch) > self.window:
            raise HMCSimError(
                f"thread {self.tid} yielded a batch of {len(batch)} "
                f"packets; the window is {self.window}"
            )
        for slot, pkt in enumerate(batch):
            pkt.tag = self.ctx.tag + slot
        self.unsent = list(batch)
        self.slots: List[Optional[object]] = [None] * len(batch)
        self.state = _READY

    def resume(self, rsp: Optional[object], cycle: int) -> None:
        """Deliver one slot's response (``None``: the last send left
        nothing to await); resume the program once the batch is in."""
        if rsp is not None:
            if rsp.tag not in self.awaiting:
                raise HMCSimError(f"response tag {rsp.tag} matches no outstanding slot")
            self.awaiting.remove(rsp.tag)
            self.slots[rsp.tag - self.ctx.tag] = rsp
            self.responses += 1
        if not (self.awaiting or self.unsent):
            try:
                self._begin(self.program.send(self.slots))
            except StopIteration:
                self.state = ThreadState.DONE
                self.done = True
                self.finish_cycle = cycle
