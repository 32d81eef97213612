"""Multi-device chaining and CUB-based routing.

HMC-Sim 1.0 supported "chaining multiple HMC devices together in a
multitude of different topologies" (§II of the paper); the capability
is carried forward here for the 2.0 packet formats.  Devices are
organized in a daisy chain ordered by cube id.  A request whose ``CUB``
field names a different cube is forwarded hop by hop toward its target
(each hop costs :attr:`Topology.hop_cycles` device cycles), executes
there, and its response makes the mirror-image return trip before
retiring on the link it originally entered.

The delay lines are modelled outside any single device so chained
traffic cannot consume vault-queue slots while in transit — matching
the pass-through routing of the physical link layer.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, List, Tuple

from repro.hmc.components import TopologyRouter, register_component
from repro.hmc.packet import ResponsePacket
from repro.hmc.xbar import Flight

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hmc.sim import HMCSim

__all__ = ["Topology", "ChainTopology", "RingTopology"]


class Topology(TopologyRouter):
    """Multi-cube router: daisy chain (default) or ring.

    In a chain, cube *i* connects to *i±1* and packets take
    ``|target - here|`` hops.  In a ring the last cube also connects
    back to cube 0, so packets take the shorter way around — at most
    ``num_devs // 2`` hops.  Both are instances of the "multitude of
    different topologies" HMC-Sim 1.0 supported.
    """

    def __init__(self, sim: "HMCSim", hop_cycles: int = 2, kind: str = "chain"):
        if hop_cycles < 1:
            raise ValueError("hop_cycles must be >= 1")
        if kind not in ("chain", "ring"):
            raise ValueError(f"unknown topology kind {kind!r}")
        # Weak, like Device's: the context owns its router, not the
        # other way round.
        self.sim = weakref.proxy(sim)
        self.hop_cycles = hop_cycles
        self.kind = kind
        #: (ready_cycle, next_dev, link, flight) requests in transit.
        self._rqst_wire: List[Tuple[int, int, int, Flight]] = []
        #: (ready_cycle, next_dev, rsp) responses in transit.
        self._rsp_wire: List[Tuple[int, int, ResponsePacket]] = []
        self.forwarded_requests = 0
        self.forwarded_responses = 0

    def _next_toward(self, here: int, target: int) -> int:
        n = self.sim.config.num_devs
        if self.kind == "ring" and n > 2:
            forward = (target - here) % n
            backward = (here - target) % n
            if forward <= backward:
                return (here + 1) % n
            return (here - 1) % n
        return here + 1 if target > here else here - 1

    def hop_distance(self, a: int, b: int) -> int:
        """Hops between cubes ``a`` and ``b`` under this topology."""
        n = self.sim.config.num_devs
        if self.kind == "ring" and n > 2:
            return min((b - a) % n, (a - b) % n)
        return abs(b - a)

    # -- called by devices ------------------------------------------------------

    def forward_request(self, from_dev: int, flight: Flight, link: int) -> None:
        """Launch a request toward ``flight.pkt.cub`` from ``from_dev``."""
        target = flight.pkt.cub
        nxt = self._next_toward(from_dev, target)
        self.forwarded_requests += 1
        self._rqst_wire.append(
            (self.sim.cycle + self.hop_cycles, nxt, link, flight)
        )

    def forward_response(self, from_dev: int, rsp: ResponsePacket, cycle: int) -> None:
        """Launch a response back toward ``rsp.origin_dev``."""
        nxt = self._next_toward(from_dev, rsp.origin_dev)
        self.forwarded_responses += 1
        self._rsp_wire.append((cycle + self.hop_cycles, nxt, rsp))

    # -- called once per simulation cycle ------------------------------------------

    def clock(self, cycle: int) -> None:
        """Deliver in-transit packets whose hop delay has elapsed."""
        if self._rqst_wire:
            still: List[Tuple[int, int, int, Flight]] = []
            for ready, dev, link, flight in self._rqst_wire:
                if ready > cycle:
                    still.append((ready, dev, link, flight))
                    continue
                device = self.sim.devices[dev]
                if flight.pkt.cub != dev:
                    # Not there yet: relay to the next hop.
                    nxt = self._next_toward(dev, flight.pkt.cub)
                    still.append((cycle + self.hop_cycles, nxt, link, flight))
                    continue
                if not device.accept_forwarded(flight, link):
                    still.append((cycle + 1, dev, link, flight))
            self._rqst_wire = still
        if self._rsp_wire:
            still_r: List[Tuple[int, int, ResponsePacket]] = []
            for ready, dev, rsp in self._rsp_wire:
                if ready > cycle:
                    still_r.append((ready, dev, rsp))
                    continue
                if rsp.origin_dev != dev:
                    nxt = self._next_toward(dev, rsp.origin_dev)
                    still_r.append((cycle + self.hop_cycles, nxt, rsp))
                    continue
                device = self.sim.devices[dev]
                device.links[rsp.origin_link].retire(rsp)
                device.retired_rsps += 1
            self._rsp_wire = still_r

    @property
    def in_transit(self) -> int:
        """Packets currently travelling between cubes."""
        return len(self._rqst_wire) + len(self._rsp_wire)

    # -- checkpointing -------------------------------------------------------------

    # The wires are empty at a checkpoint (the context is idle).
    STATE = {"forwarded_requests": 0, "forwarded_responses": 0}


@register_component("topology", "chain")
class ChainTopology(Topology):
    """Daisy-chain routing (seam key ``chain``, the default): cube *i*
    connects to *i±1*; packets take ``|target - here|`` hops."""

    def __init__(self, sim: "HMCSim"):
        super().__init__(sim, kind="chain")


@register_component("topology", "ring")
class RingTopology(Topology):
    """Ring routing (seam key ``ring``): the last cube connects back to
    cube 0 and packets take the shorter way around — at most
    ``num_devs // 2`` hops."""

    def __init__(self, sim: "HMCSim"):
        super().__init__(sim, kind="ring")
