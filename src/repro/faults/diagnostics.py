"""Deadlock diagnostics: turn a hung simulation into a readable dump.

The seed simulator's only livelock defence was a bare "did not
complete within N cycles" raise — correct, but useless for diagnosis:
it says *that* the workload hung, not *where*.  This module collects
the state a post-mortem actually needs — outstanding tags, every
nonempty queue, link-layer token balances, in-transit topology
packets, fault bookkeeping — into a :class:`DeadlockDump` that rides
on :class:`repro.errors.SimDeadlockError` (its ``dump`` attribute) and
renders into the exception message, so a hang is diagnosable from the
traceback alone.

Everything here is duck-typed against the simulation context: the
module imports nothing from :mod:`repro.hmc` but the wire format's
``MAX_TAG``, so the ``hmc`` modules can import it at module top (the
lint gate bans function-level imports there) without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.hmc.packet import MAX_TAG

__all__ = ["DeadlockDump", "collect_deadlock_dump"]

#: Per-section cap on rendered items, keeping exception messages bounded
#: even when thousands of requests are stuck.
_MAX_ITEMS = 32


@dataclass
class DeadlockDump:
    """A structured snapshot of everything still in flight.

    Carried by :class:`repro.errors.SimDeadlockError`; ``str(dump)``
    renders the multi-line diagnostic appended to the message.
    """

    cycle: int
    #: (cub, tag) pairs the host still expects a response for.
    outstanding: Tuple[Tuple[int, int], ...] = ()
    #: (structure name, occupancy) for every nonempty queue/buffer.
    occupancies: Tuple[Tuple[str, int], ...] = ()
    #: (link name, token/retry/replay summary) per flow-model link.
    tokens: Tuple[Tuple[str, str], ...] = ()
    #: Packets travelling between cubes.
    in_transit: int = 0
    #: (cub, tag) whose response a fault destroyed → the fault kind.
    lost_tags: Mapping[Tuple[int, int], str] = field(default_factory=dict)
    #: Fault counters at the time of the hang.
    fault_counts: Tuple[Tuple[str, int], ...] = ()
    #: Caller-supplied context (e.g. host thread states).
    extra: Dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def _clip(items: List[str]) -> str:
        if len(items) > _MAX_ITEMS:
            return " ".join(items[:_MAX_ITEMS]) + f" ... (+{len(items) - _MAX_ITEMS} more)"
        return " ".join(items) if items else "<none>"

    def __str__(self) -> str:
        lines = [f"deadlock diagnostic @ cycle {self.cycle}:"]
        lines.append(
            f"  outstanding tags ({len(self.outstanding)}): "
            + self._clip([f"cub{c}:tag{t}" for c, t in self.outstanding])
        )
        lines.append(
            f"  nonempty structures ({len(self.occupancies)}): "
            + self._clip([f"{name}={n}" for name, n in self.occupancies])
        )
        if self.tokens:
            lines.append(
                f"  link flow ({len(self.tokens)}): "
                + self._clip([f"{name}[{desc}]" for name, desc in self.tokens])
            )
        if self.in_transit:
            lines.append(f"  topology in transit: {self.in_transit}")
        if self.lost_tags:
            lines.append(
                f"  fault-lost tags ({len(self.lost_tags)}): "
                + self._clip(
                    [f"cub{c}:tag{t}={kind}" for (c, t), kind in self.lost_tags.items()]
                )
            )
        if self.fault_counts:
            lines.append(
                "  fault counts: "
                + self._clip([f"{k}={v}" for k, v in self.fault_counts])
            )
        for key, value in self.extra.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def collect_deadlock_dump(
    sim: Any, extra: Optional[Mapping[str, Any]] = None
) -> DeadlockDump:
    """Snapshot a simulation context for a :class:`DeadlockDump`.

    Safe to call on any context state (including mid-hang): it only
    reads, never mutates, and tolerates absent optional subsystems
    (no flow model, no faults, single-device topology).
    """
    outstanding = tuple(
        sorted((key >> 11, key & MAX_TAG) for key in sim._outstanding)
    )

    occupancies: List[Tuple[str, int]] = []
    for device in sim.devices:
        # A vault's parked response is listed right after its queue.
        parked = {
            vault.rqst_queue: vault
            for vault in device.vaults
            if vault._pending_rsp is not None
        }
        for q in device.queues:
            n = len(q._q)
            if n:
                occupancies.append((q.name, n))
            vault = parked.get(q)
            if vault is not None:
                occupancies.append(
                    (f"dev{device.dev}.vault{vault.index}.pending_rsp", 1)
                )
        for link in device.links:
            n = link.pending_responses()
            if n:
                occupancies.append(
                    (f"dev{device.dev}.link{link.link_id}.retired", n)
                )

    tokens: List[Tuple[str, str]] = []
    flow = sim.flow
    if flow is not None:
        per_link = getattr(flow, "_links", None)
        if per_link:
            full = getattr(flow, "tokens_per_link", None)
            for (dev, link), st in sorted(per_link.items()):
                desc = f"tokens={st.tokens}"
                if full is not None:
                    desc += f"/{full}"
                if st.retry_buffer:
                    desc += f" retry_buf={len(st.retry_buffer)}"
                if st.replay_queue:
                    desc += f" replays={len(st.replay_queue)}"
                tokens.append((f"dev{dev}.link{link}", desc))

    lost: Dict[Tuple[int, int], str] = {}
    fault_counts: Tuple[Tuple[str, int], ...] = ()
    faults = getattr(sim, "faults", None)
    if faults is not None:
        lost = dict(sorted(faults.lost_tags.items()))
        fault_counts = tuple(sorted(faults.counts.items()))

    return DeadlockDump(
        cycle=sim.cycle,
        outstanding=outstanding,
        occupancies=tuple(occupancies),
        tokens=tuple(tokens),
        in_transit=sim.topology.in_transit,
        lost_tags=lost,
        fault_counts=fault_counts,
        extra=dict(extra or {}),
    )
