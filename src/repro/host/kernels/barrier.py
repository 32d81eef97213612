"""Sense-reversing barrier composed from CMC operations.

The paper's *Creative Experimentation* requirement (§IV.A) is about
combining CMC operations: here a classic centralized sense-reversing
barrier is built from two already-loaded plugins — ``hmc_fadd64``
(CMC04) for the atomic arrival count and plain reads for the sense
spin — with the last arrival flipping the sense via an ordinary write.

Memory layout at ``addr``::

    addr + 0   arrival counter (fadd64 target)
    addr + 8   sense word (threads spin reading it)

The workload runs R barrier rounds across N threads and verifies the
fundamental barrier property: no thread enters round ``r+1`` before
every thread has finished round ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hmc.commands import hmc_rqst_t
from repro.host.thread import Program, ThreadCtx

__all__ = ["barrier_program", "check_order", "BarrierStats"]

_M64 = (1 << 64) - 1


def _payload(v: int) -> bytes:
    return (v & _M64).to_bytes(8, "little") + bytes(8)


def barrier_program(
    ctx: ThreadCtx,
    addr: int,
    num_threads: int,
    rounds: int,
    log: List,
) -> Program:
    """R rounds of: arrive (fadd64), last flips sense, others spin."""
    sense = 0
    for r in range(rounds):
        log.append(("enter", r, ctx.tid))
        rsp = yield ctx.request(hmc_rqst_t.CMC04, addr, data=_payload(1))
        arrivals = int.from_bytes(rsp.data[:8], "little")
        if arrivals % num_threads == num_threads - 1:
            # Last arrival: reset understanding is implicit (counter
            # keeps growing); flip the sense word to release everyone.
            yield ctx.write(addr + 8, _payload(sense ^ 1)[:16])
        else:
            while True:
                rsp = yield ctx.read(addr + 8, 16)
                if int.from_bytes(rsp.data[:8], "little") == sense ^ 1:
                    break
        sense ^= 1
        log.append(("exit", r, ctx.tid))


@dataclass(frozen=True)
class BarrierStats:
    """One barrier-workload run."""

    config_name: str
    threads: int
    rounds: int
    total_cycles: int
    cycles_per_round: float
    #: True when no thread entered round r+1 before all exited round r.
    order_correct: bool


def check_order(log: List, num_threads: int, rounds: int) -> bool:
    """Verify the barrier property from the event log.

    Two invariants:

    * no thread *exits* round ``r+1`` before every thread has exited
      round ``r`` (rounds complete strictly in order);
    * every thread exits every round exactly once.
    """
    exit_counts = [0] * rounds
    for kind, r, tid in log:
        if kind != "exit":
            continue
        if r > 0 and exit_counts[r - 1] < num_threads:
            return False  # someone escaped round r before r-1 finished
        exit_counts[r] += 1
        if exit_counts[r] > num_threads:
            return False
    return all(c == num_threads for c in exit_counts)
