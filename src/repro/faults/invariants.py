"""Cycle-wise simulation invariants.

Fault injection is only trustworthy if the simulator itself stays
sound while being broken: a dropped response must lose exactly one
tag, a CRC retry must conserve link tokens, and no bounded queue may
ever exceed its depth.  :class:`InvariantChecker` verifies those
properties between cycles and raises
:class:`~repro.errors.InvariantViolation` naming the failing invariant
and the offending structure — chaos tests treat any such raise as a
simulator bug, never as a workload property.

Checked invariants:

* **Tag conservation** — every (cub, tag) the host still expects a
  response for is physically present somewhere in the system (crossbar
  queues, vault queues, parked responses, retire buffers, topology
  wires, link replay queues) *or* recorded in the fault controller's
  lost-tag set (a fault destroyed it; the watchdog will retransmit).
* **Token conservation** — per link, free tokens plus the FLITs held
  in the retry buffer equal the advertised credit: tokens can move,
  never leak.
* **Queue bounds** — no :class:`~repro.hmc.queue.StallQueue` holds
  more entries than its depth.
* **Queue counters** — per queue, ``pushes - pops == occupancy``: the
  schedulers' hand-maintained counters on the raw-deque fast path must
  track every entry that enters or leaves.

The checker is opt-in and O(system) per call — it walks every queue —
so hosts enable it in chaos/regression runs, not in performance
sweeps.  Like :mod:`repro.faults.diagnostics` it is duck-typed against
the context and imports nothing from :mod:`repro.hmc`.
"""

from __future__ import annotations

from typing import Any, List, Set, Tuple

from repro.errors import InvariantViolation
from repro.hmc.packet import MAX_TAG

__all__ = ["InvariantChecker"]


class InvariantChecker:
    """Verifies conservation invariants of one simulation context."""

    def __init__(self, sim: Any):
        self.sim = sim
        #: Number of completed check() calls (all invariants held).
        self.checks = 0

    # -- the per-cycle entry point --------------------------------------------

    def check(self, cycle: int) -> None:
        """Verify every invariant; raise :class:`InvariantViolation`
        on the first failure.  Intended to run between cycles (the
        host engine calls it after its drain phase), when no packet is
        mid-transfer between structures."""
        self._check_queue_bounds(cycle)
        self._check_queue_counters(cycle)
        self._check_token_conservation(cycle)
        self._check_tag_conservation(cycle)
        self.checks += 1

    # -- queue bounds ----------------------------------------------------------

    def _check_queue_bounds(self, cycle: int) -> None:
        for device in self.sim.devices:
            for q in device.queues:
                if len(q._q) > q.depth:
                    raise InvariantViolation(
                        f"queue-bound invariant violated at cycle {cycle}: "
                        f"{q.name} holds {len(q._q)} entries, depth {q.depth}"
                    )

    def _check_queue_counters(self, cycle: int) -> None:
        """``pushes - pops == occupancy`` for every bounded queue.

        Every hop of the datapath (send, the three device phases, the
        vault scan) moves entries on the queue's deque (``_q``) in its
        own frame and books the counters once per run; this audit
        catches any path that removes an entry without booking the pop
        (or vice versa).
        """
        for device in self.sim.devices:
            for q in device.queues:
                if q.pushes - q.pops != len(q._q):
                    raise InvariantViolation(
                        f"queue-counter invariant violated at cycle {cycle}: "
                        f"{q.name} has pushes={q.pushes} pops={q.pops} but "
                        f"holds {len(q._q)} entries "
                        f"(drift {q.pushes - q.pops - len(q._q):+d})"
                    )

    # -- token conservation ----------------------------------------------------

    def _check_token_conservation(self, cycle: int) -> None:
        flow = self.sim.flow
        if flow is None:
            return
        per_link = getattr(flow, "_links", None)
        if not per_link:
            return
        full = flow.tokens_per_link
        for (dev, link), st in per_link.items():
            held = sum(flits for flits, _pkt in st.retry_buffer.values())
            if st.tokens + held != full:
                raise InvariantViolation(
                    f"token-conservation invariant violated at cycle {cycle}: "
                    f"dev{dev}.link{link} has {st.tokens} free tokens + "
                    f"{held} FLITs in the retry buffer != {full} advertised"
                )
            if st.tokens < 0:
                raise InvariantViolation(
                    f"token-conservation invariant violated at cycle {cycle}: "
                    f"dev{dev}.link{link} token balance is negative ({st.tokens})"
                )

    # -- tag conservation --------------------------------------------------------

    def _in_system_tags(self) -> Set[Tuple[int, int]]:
        """Every (cub, tag) physically present in the datapath."""
        sim = self.sim
        present: Set[Tuple[int, int]] = set()
        for device in sim.devices:
            # A crossbar may store bare row handles in its request
            # queues instead of Flight objects (the vector engine's
            # flight table); such a model exposes a ``resolve_tag``
            # capability mapping a handle to its (cub, tag).
            resolve = getattr(device.xbar, "resolve_tag", None)
            for q in device.queues:
                for entry in q._q:
                    if resolve is not None and isinstance(entry, int):
                        present.add(resolve(entry))
                    else:
                        # A request queue holds Flights, which carry
                        # their packet; a response queue holds packets.
                        pkt = getattr(entry, "pkt", entry)
                        present.add((pkt.cub, pkt.tag))
            for vault in device.vaults:
                if vault._pending_rsp is not None:
                    _flight, rsp = vault._pending_rsp
                    present.add((rsp.cub, rsp.tag))
            for link in device.links:
                for rsp in link.retired:
                    present.add((rsp.cub, rsp.tag))
        topo = sim.topology
        for _ready, _dev, _link, flight in getattr(topo, "_rqst_wire", ()):
            present.add((flight.pkt.cub, flight.pkt.tag))
        for _ready, _dev, rsp in getattr(topo, "_rsp_wire", ()):
            present.add((rsp.cub, rsp.tag))
        flow = sim.flow
        if flow is not None:
            per_link = getattr(flow, "_links", None) or {}
            for st in per_link.values():
                for _ready, flight in st.replay_queue:
                    present.add((flight.pkt.cub, flight.pkt.tag))
                for _flits, flight in st.retry_buffer.values():
                    pkt = getattr(flight, "pkt", None)
                    if pkt is not None:
                        present.add((pkt.cub, pkt.tag))
        return present

    def _check_tag_conservation(self, cycle: int) -> None:
        sim = self.sim
        outstanding = {
            (key >> 11, key & MAX_TAG) for key in sim._outstanding
        }
        if not outstanding:
            return
        present = self._in_system_tags()
        missing = outstanding - present
        if not missing:
            return
        faults = getattr(sim, "faults", None)
        if faults is not None:
            missing.difference_update(faults.lost_tags)
        if missing:
            shown: List[str] = [
                f"cub{c}:tag{t}" for c, t in sorted(missing)[:16]
            ]
            raise InvariantViolation(
                f"tag-conservation invariant violated at cycle {cycle}: "
                f"{len(missing)} outstanding tag(s) are neither in the "
                f"datapath nor fault-lost: {' '.join(shown)}"
            )
