"""Logic-layer crossbar: per-link request/response queues and routing.

The crossbar connects a device's links to its 32 vaults.  Each link
owns a bounded request queue and a bounded response queue (depth =
``xbar_depth``, 128 slots in the paper's evaluation).  The queues
model capacity; :class:`~repro.hmc.device.Device` moves their entries,
in its own clock phases:

* *drain*: a link's request queue empties, in order, into the target
  vaults' request queues every cycle, stopping at the first entry whose
  vault queue is full (this back-pressure is what differentiates the
  4-link and 8-link devices once the paper's hot-spot workload exceeds
  ~50 threads);
* *retire*: up to ``link_rsp_rate`` responses per link per cycle move
  from the link's response queue to its retire buffer, where the host
  can ``recv`` them.

Requests entering on a link that is not attached to the target vault's
quadrant may be charged extra hop cycles
(``HMCConfig.nonlocal_hop_cycles``, default 0 to match the paper's
queueing-dominated model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from repro.hmc.commands import CommandInfo
from repro.hmc.components import CrossbarModel, register_component
from repro.hmc.packet import RequestPacket, ResponsePacket
from repro.hmc.queue import StallQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hmc.config import HMCConfig

__all__ = ["Flight", "XBar", "IdealXBar"]


@dataclass(eq=False, slots=True)
class Flight:
    """A request in flight through one device, with routing metadata.

    Identity-compared (``eq=False``): two flights carrying equal
    packets are still distinct queue entries.
    """

    pkt: RequestPacket
    src_link: int
    inject_cycle: int
    vault: int
    bank: int
    quad: int
    #: Remaining extra crossbar hop cycles before the packet may route.
    hop_delay: int
    #: Device the request originally entered on (multi-device topologies).
    origin_dev: int
    #: Command metadata (execute arm, payload sizes, response command),
    #: resolved once at inject time so the drain and execute phases
    #: never re-run the command-table lookup.
    info: CommandInfo = field(compare=False)
    #: Row coordinate of the target address, decoded once at inject time
    #: (bank timing).
    row: int = field(compare=False)
    # Everything ``Device.send`` fills in is above (it constructs
    # positionally) and required; what later stages write follows.
    #: Link-layer sequence number (set when a LinkFlowModel is attached).
    link_seq: int = field(default=-1, compare=False)
    #: Cycle at which DRAM service completes (timing model only; -1 =
    #: service not yet started).
    service_until: int = field(default=-1, compare=False)


@register_component("xbar", "queued")
class XBar(CrossbarModel):
    """The bounded-queue crossbar of one device (seam key ``queued``).

    Per-link request/response queues of ``config.xbar_depth`` slots;
    a full queue back-pressures the sender — the capacity model behind
    the paper's Figures 5-7.
    """

    PARTS = ("rqst_queues", "rsp_queues")

    def __init__(self, config: HMCConfig, dev: int, *, depth: int = 0):
        self.config = config
        self.dev = dev
        depth = depth or config.xbar_depth
        self.rqst_queues: List[StallQueue] = [
            StallQueue(depth, f"dev{dev}.link{l}.xbar_rqst")
            for l in range(config.num_links)
        ]
        self.rsp_queues: List[StallQueue] = [
            StallQueue(depth, f"dev{dev}.link{l}.xbar_rsp")
            for l in range(config.num_links)
        ]
        # O(1) occupancy counters maintained by every queue mutation,
        # below and in the device's phases: the active-set scheduler's
        # "is this crossbar idle?" check must not scan 2 * num_links
        # queues per cycle.
        self.rqst_occ = 0
        self.rsp_occ = 0

    # -- host side -----------------------------------------------------------

    def inject(self, link: int, flight: Flight) -> bool:
        """Push a request into a link's crossbar queue.

        Returns False when the queue is full.  The cold twin of the
        push ``Device.send`` does in its own frame: forwarded, replayed
        and externally driven flights enter here.
        """
        if not self.rqst_queues[link].push(flight):
            return False
        self.rqst_occ += 1
        return True

    # -- device side -----------------------------------------------------------

    def push_response(self, link: int, rsp: ResponsePacket) -> bool:
        """Queue a completed response toward its source link (the cold
        twin of the vault scan's push: a parked response retries here)."""
        if not self.rsp_queues[link].push(rsp):
            return False
        self.rsp_occ += 1
        return True

    # -- statistics -----------------------------------------------------------

    def total_stalls(self) -> int:
        """Stall count across all crossbar queues."""
        return sum(q.stalls for q in self.rqst_queues) + sum(
            q.stalls for q in self.rsp_queues
        )

    def occupancy(self) -> int:
        """Entries currently queued across all crossbar queues."""
        return self.rqst_occ + self.rsp_occ


#: Queue depth used by the ideal crossbar: deep enough that no workload
#: ever fills it, so inject/push_response never stall.
_IDEAL_DEPTH = 1 << 30


@register_component("xbar", "ideal")
class IdealXBar(XBar):
    """A capacity-unconstrained crossbar (seam key ``ideal``).

    The classic ablation model: identical routing and ordering, but the
    per-link queues are effectively infinite, so the crossbar never
    back-pressures the host or the vault response path.  Comparing a
    run against the ``queued`` model isolates how much of a workload's
    queueing delay the crossbar capacity itself contributes.
    """

    def __init__(self, config: HMCConfig, dev: int):
        super().__init__(config, dev, depth=_IDEAL_DEPTH)
