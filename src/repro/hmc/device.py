"""One HMC device: links, crossbar, vaults, registers, and its clock.

The device advances in three fixed phases per cycle (see DESIGN.md §2),
ordered so that an uncontended request completes its round trip in
exactly three cycles — the calibration that makes the paper's
Algorithm 1 fast path cost MIN_CYCLE = 6:

1. **Retire** — up to ``link_rsp_rate`` responses per link move from
   the crossbar response queue to the link retire buffer (and, in
   chained topologies, responses belonging to another cube are handed
   to the topology for the return trip).
2. **Vault execute** — each vault with work walks its whole request
   queue under its scheduler's policy (busy banks are skipped; the
   per-cycle response budget or a full response path ends the walk).
3. **XBar drain** — each link's crossbar request queue empties, in
   order, into the target vault queues (or to the topology when the
   packet's CUB names another cube), stopping at a full vault queue.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, List, Set

from repro.hmc.commands import ARM_FLOW, COMMAND_TABLE_LIST
from repro.hmc.components import CrossbarModel, Stateful
from repro.hmc.composition import build, build_xbar
from repro.hmc.config import HMCConfig
from repro.hmc.link import Link
from repro.hmc.memory import MemoryView
from repro.hmc.packet import RequestPacket
from repro.hmc.queue import StallQueue
from repro.hmc.registers import RegisterFile
from repro.hmc.trace import TraceLevel
from repro.hmc.vault import Vault
from repro.hmc.xbar import Flight

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hmc.addrmap import AddressMap
    from repro.hmc.sim import HMCSim

__all__ = ["Device", "FATE_DELIVER", "FATE_DROP", "FATE_DUP"]

#: What the crossbar retire port does with a response, as decided by
#: :meth:`repro.faults.controller.FaultController.response_fate`.
FATE_DELIVER = 0
FATE_DROP = 1
FATE_DUP = 2

_T_CMD = int(TraceLevel.CMD)
_T_LATENCY = int(TraceLevel.LATENCY)
_T_STALL = int(TraceLevel.STALL)
_T_FAULT = int(TraceLevel.FAULT)


class Device(Stateful):
    """One Hybrid Memory Cube in a simulation context."""

    STATE = {
        "cmc_rejects": 0,
        "cmc_failures": 0,
        "flow_packets": 0,
        "forwarded_rqsts": 0,
        "retired_rsps": 0,
    }
    PARTS = ("links", "xbar", "vaults", "registers")

    def __init__(self, dev: int, config: HMCConfig, sim: "HMCSim"):
        self.dev = dev
        self.config = config
        # Held weakly: a context and its devices are then no reference
        # cycle, so dropping the last reference to an HMCSim frees it,
        # and its page store, at once instead of at some later garbage
        # collection (a sweep builds one context per point).
        self._sim = weakref.ref(sim)
        self.links: List[Link] = [
            Link(l, config.quad_of_link(l)) for l in range(config.num_links)
        ]
        # Pipeline stages come from the component registry (via the
        # composition root), never from concrete classes: the selected
        # implementations are config fields, and the lint gate keeps
        # this module free of direct seam-implementation imports.
        self.xbar: CrossbarModel = build_xbar(config, dev)
        self.vaults: List[Vault] = [
            Vault(
                v,
                config.quad_of_vault(v),
                config.queue_depth,
                config.num_banks,
                dev,
                scheduler=build("vault_scheduler", config),
            )
            for v in range(config.num_vaults)
        ]
        self.registers = RegisterFile(config, dev)
        #: Every bounded queue of this device, listed once: crossbar
        #: request queues, crossbar response queues, then each vault's
        #: request queue.  ``HMCSim.stats()``, the invariant checker,
        #: deadlock dumps and ``SimSampler`` all read this list, in
        #: this order; nothing reassigns the parts' queue lists.
        self.queues: List[StallQueue] = [
            *self.xbar.rqst_queues,
            *self.xbar.rsp_queues,
            *(vault.rqst_queue for vault in self.vaults),
        ]
        self._mem: MemoryView = sim.backend.view(
            dev * config.capacity_bytes, config.capacity_bytes
        )
        # Active-set scheduler state: vaults with queued or pending
        # work.  The crossbar drain adds a vault on every push; the
        # execute phase removes a vault once its queue and pending
        # response slot are both empty.  Between phases the set is
        # exactly {v : v.rqst_queue or v._pending_rsp}.
        self._active_vaults: Set[int] = set()
        self.route_by(config, sim.addrmap)
        self._quads_of_vaults = tuple(
            config.quad_of_vault(v) for v in range(config.num_vaults)
        )
        self._quads_of_links = tuple(
            config.quad_of_link(l) for l in range(config.num_links)
        )
        # Capability hooks a crossbar model may provide (the vector
        # engine does): resolved once with getattr, None for the
        # standard models, so this module still names no concrete
        # seam implementation.
        self._send_hook = getattr(self.xbar, "fast_send", None)
        self._cycle_hook = getattr(self.xbar, "device_cycle", None)
        # Counters.
        self.cmc_rejects = 0
        self.cmc_failures = 0
        self.flow_packets = 0
        self.forwarded_rqsts = 0
        self.retired_rsps = 0

    def route_by(self, config: HMCConfig, addrmap: "AddressMap") -> None:
        """Adopt ``config`` and read the send path's inlined routing
        constants from ``addrmap`` (again when the block size changes)."""
        self.config = config
        self._cap_mask = config.capacity_bytes - 1
        (
            self._vault_lo,
            self._vault_mask,
            self._bank_lo,
            self._bank_mask,
            self._row_lo,
            self._row_mask,
        ) = addrmap.routing_constants()

    # -- services shared with the vault pipeline ------------------------------

    @property
    def sim(self) -> "HMCSim":
        """The owning simulation context."""
        return self._sim()

    # -- host interface --------------------------------------------------------

    def send(self, link: int, pkt: RequestPacket, cycle: int) -> bool:
        """Inject a request on ``link`` (:meth:`HMCSim.send` checked it);
        False = HMC_STALL (queue full)."""
        hook = self._send_hook
        if hook is not None:
            handled = hook(self, pkt, link, cycle)
            if handled is not None:
                # The crossbar took (or stalled) the request itself;
                # only the link ingress counters remain to update.
                # Vector mode implies tracing is off, so the stall
                # trace of the scalar path has no equivalent here.
                if handled:
                    lk = self.links[link]
                    lk.rqsts_in += 1
                    lk.flits_in += 1 + len(pkt.data) // 16
                return handled
        pkt.slid = link
        lng = 1 + len(pkt.data) // 16  # pkt.lng, without the property calls
        # The request is decoded exactly once, here, and carried on the
        # Flight: vault/bank/quad for the crossbar, row for bank timing,
        # and the command-table entry (execute arm, payload sizes,
        # response command) for every later phase.
        local = pkt.addr & self._cap_mask
        vault = (local >> self._vault_lo) & self._vault_mask
        quad = self._quads_of_vaults[vault]
        hop = (
            self.config.nonlocal_hop_cycles
            if self._quads_of_links[link] != quad
            else 0
        )
        flight = Flight(
            pkt,
            link,
            cycle,
            vault,
            (local >> self._bank_lo) & self._bank_mask,
            quad,
            hop,
            self.dev,
            COMMAND_TABLE_LIST[pkt.cmd],
            (local >> self._row_lo) & self._row_mask,
        )
        sim = self._sim()
        flow = sim.flow
        if flow is not None and not flow.try_acquire(self.dev, link, lng):
            # Link-layer token stall: the transmitter has no credit.
            tracer = sim.tracer
            if tracer.mask & _T_STALL:
                tracer.trace_stall(
                    cycle, where=f"link{link}.tokens", dev=self.dev, src=link
                )
            return False
        # XBar.inject, in this frame (a declining send hook has already
        # put a flight-table crossbar in scalar mode).
        xbar = self.xbar
        q = xbar.rqst_queues[link]
        n = len(q._q) + 1
        if n > q.depth:
            q.stalls += 1
            if flow is not None:
                # Queue full after credit was granted: hand it back.
                flow.refund(self.dev, link, lng)
            tracer = sim.tracer
            if tracer.mask & _T_STALL:
                tracer.trace_stall(
                    cycle, where=f"link{link}.xbar_rqst", dev=self.dev, src=link
                )
            return False
        q._q.append(flight)
        q.pushes += 1
        if n > q.high_water:
            q.high_water = n
        xbar.rqst_occ += 1
        if flow is not None:
            flight.link_seq = flow.on_transmit(self.dev, link, lng, flight)
        lk = self.links[link]
        lk.rqsts_in += 1
        lk.flits_in += lng
        return True

    def route_flight(
        self,
        pkt: RequestPacket,
        src_link: int,
        inject_cycle: int,
        *,
        origin_dev: int = 0,
    ) -> Flight:
        """Build a :class:`Flight` for ``pkt`` with routing recomputed.

        The cold-path twin of the routing block in :meth:`send`: the
        vector crossbar's spill (and external drivers) rebuild queued
        requests from bare packets here, deriving vault/bank/quad/row
        and the command-table entry from the packet.
        """
        local = pkt.addr & self._cap_mask
        vault = (local >> self._vault_lo) & self._vault_mask
        return Flight(
            pkt=pkt,
            src_link=src_link,
            inject_cycle=inject_cycle,
            vault=vault,
            bank=(local >> self._bank_lo) & self._bank_mask,
            quad=self._quads_of_vaults[vault],
            hop_delay=0,
            origin_dev=origin_dev,
            info=COMMAND_TABLE_LIST[pkt.cmd],
            row=(local >> self._row_lo) & self._row_mask,
        )

    def accept_forwarded(self, flight: Flight, link: int) -> bool:
        """Receive a request forwarded from a neighbouring cube."""
        return self.xbar.inject(link, flight)

    # -- clock phases ------------------------------------------------------------

    def busy(self) -> bool:
        """True when this device has work a cycle could progress.

        O(1): active vaults, crossbar occupancy counters, and the flow
        model's per-device replay index.  A device that is not busy
        skips all three clock phases — every phase is a no-op on empty
        structures, so skipping is observationally identical.
        """
        if self._active_vaults:
            return True
        xbar = self.xbar
        if xbar.rqst_occ or xbar.rsp_occ:
            return True
        flow = self._sim().flow
        return flow is not None and bool(flow.replay_links(self.dev))

    def clock(self, cycle: int) -> None:
        """Advance this device one cycle (three phases, fixed order)."""
        if not self.busy():
            return
        hook = self._cycle_hook
        if hook is not None and hook(self, cycle):
            return
        self._phase_retire(cycle)
        self._phase_vault_execute(cycle)
        self._phase_xbar_drain(cycle)

    def _phase_retire(self, cycle: int) -> None:
        # A link retires up to config.link_rsp_rate response packets
        # per device cycle — the serial link moves several packets per
        # device clock, but not unboundedly many.  Per-link response
        # bandwidth is what saturates first under the paper's hot-spot
        # workload, and it saturates at roughly half the thread count
        # on a 4-link device compared to an 8-link one.
        xbar = self.xbar
        if not xbar.rsp_occ:
            return
        sim = self._sim()
        dev = self.dev
        tracer = sim.tracer
        tmask = tracer.mask
        rate = self.config.link_rsp_rate
        rsp_queues = xbar.rsp_queues
        faults = sim.faults
        rsp_faults = (
            faults if faults is not None and faults.has_rsp_faults else None
        )
        for link in self.links:
            queue = rsp_queues[link.link_id]
            dq = queue._q
            if not dq:
                continue
            # One run per link: entries move queue -> retire buffer here;
            # the queue, crossbar and link counters advance once, after
            # the run.
            run = min(rate, len(dq))
            retired = link.retired
            out = flits = 0
            for _ in range(run):
                rsp = dq.popleft()
                rsp.retire_cycle = cycle
                if rsp.origin_dev != dev and rsp.origin_dev != -1:
                    # Response belongs to a request that entered on
                    # another cube: hand it to the topology for the
                    # return trip.
                    sim.topology.forward_response(dev, rsp, cycle)
                    continue
                if rsp_faults is not None:
                    fate = rsp_faults.response_fate(dev, link.link_id, rsp, cycle)
                    if fate == FATE_DROP:
                        # The response vanishes: record the lost tag so
                        # the invariant checker excuses it and the host
                        # watchdog knows to retransmit.
                        rsp_faults.on_response_dropped(
                            dev, link.link_id, rsp, cycle
                        )
                        continue
                    if fate == FATE_DUP:
                        rsp_faults.note(
                            "rsp_dup", cycle,
                            dev=dev, link=link.link_id, tag=rsp.tag,
                        )
                        retired.append(rsp)
                        out += 1
                        flits += 1 + len(rsp.data) // 16
                        self.retired_rsps -= 1  # counted once, below
                retired.append(rsp)
                out += 1
                flits += 1 + len(rsp.data) // 16  # rsp.lng, inlined
                if tmask & _T_CMD:
                    resp = rsp.response
                    op = resp.name if resp is not None else f"CMC_RSP({rsp.cmd})"
                    tracer.trace_rsp(
                        cycle, op=op, dev=dev, link=link.link_id, tag=rsp.tag
                    )
                if tmask & _T_LATENCY and rsp.inject_cycle >= 0:
                    tracer.trace_latency(
                        cycle, tag=rsp.tag, cycles=cycle - rsp.inject_cycle
                    )
            queue.pops += run
            xbar.rsp_occ -= run
            self.retired_rsps += out
            link.rsps_out += out
            link.flits_out += flits

    def _phase_vault_execute(self, cycle: int) -> None:
        active = self._active_vaults
        if not active:
            return
        faults = self._sim().faults
        stall = (
            faults.vault if faults is not None and faults.has_vault else None
        )
        vaults = self.vaults
        # Ascending vault order matters: multiple vaults can target the
        # same response queue, and the seed engine visited vaults in
        # index order.  Inactive vaults are no-ops there, so iterating
        # the sorted active set preserves ordering exactly.
        for index in sorted(active):
            if stall is not None and stall.stalled(self.dev, index, cycle):
                # Transient vault freeze: queued work waits in place and
                # the vault stays active, resuming when the stall window
                # passes — nothing is lost, only delayed.
                continue
            vault = vaults[index]
            if vault._pending_rsp is not None and not vault.flush_pending(
                self, cycle
            ):
                continue
            vault.step(self, cycle)
            if not vault.rqst_queue._q and vault._pending_rsp is None:
                active.discard(index)

    def _phase_xbar_drain(self, cycle: int) -> None:
        # Each link's crossbar queue drains fully per cycle (in order),
        # blocking only on a full vault queue — the crossbar, like the
        # vault queues, models capacity.  The fixed link iteration
        # order is the source of the small 4-link/8-link ordering
        # perturbations the paper observes past ~50 threads, once the
        # hot vault's 64-slot queue overflows back into the per-link
        # crossbar queues.  Only links with queued requests or due
        # replays are visited; a skipped link is a no-op in the full
        # scan (empty head, empty replay list), so ascending iteration
        # over the active links is order-identical.
        xbar = self.xbar
        sim = self._sim()
        dev = self.dev
        flow = sim.flow
        rqst_queues = xbar.rqst_queues
        if flow is None:
            if not xbar.rqst_occ:
                return
            active = [l for l in range(self.config.num_links) if rqst_queues[l]._q]
        else:
            replay_links = flow.replay_links(dev)
            if not xbar.rqst_occ and not replay_links:
                return
            active = sorted(
                {l for l in range(self.config.num_links) if rqst_queues[l]._q}
                | set(replay_links)
            )
        tracer = sim.tracer
        multi = sim.config.num_devs > 1
        vaults = self.vaults
        active_vaults = self._active_vaults
        for link_id in active:
            if flow is not None:
                # Replay packets whose link-retry latency has elapsed.
                for replay in flow.due_replays(dev, link_id, cycle):
                    if flow.try_acquire(dev, link_id, replay.pkt.lng):
                        if xbar.inject(link_id, replay):
                            replay.link_seq = flow.on_transmit(
                                dev, link_id, replay.pkt.lng, replay
                            )
                        else:
                            flow.refund(dev, link_id, replay.pkt.lng)
                            flow.schedule_replay(dev, link_id, cycle + 1, replay)
                    else:
                        flow.schedule_replay(dev, link_id, cycle + 1, replay)
            queue = rqst_queues[link_id]
            dq = queue._q
            # One run per link: entries move crossbar -> vault queue
            # here; the queue and crossbar counters advance once, after
            # the run.
            moved = 0
            while dq:
                flight = dq[0]
                if flight.hop_delay > 0:
                    flight.hop_delay -= 1
                    break
                if (
                    flow is not None
                    and flight.link_seq >= 0
                    and flow.transmission_corrupted(dev, link_id, flight.link_seq)
                ):
                    # CRC error at the receiver: drop the packet and
                    # negatively acknowledge — the transmitter will
                    # replay it from the retry buffer (IRTRY).
                    dq.popleft()
                    moved += 1
                    flow.negative_acknowledge(
                        dev, link_id, flight.link_seq, cycle, flight.pkt.tag
                    )
                    tracer.trace_stall(
                        cycle, where=f"link{link_id}.retry", dev=dev, src=link_id
                    )
                    if tracer.mask & _T_FAULT:
                        tracer.trace_fault(
                            cycle,
                            kind="link_retry",
                            dev=dev,
                            link=link_id,
                            tag=flight.pkt.tag,
                        )
                    continue
                forward = False
                if flight.info.arm == ARM_FLOW:
                    # Flow packets are consumed at the link layer.
                    self.flow_packets += 1
                elif multi and flight.pkt.cub != dev:
                    self.forwarded_rqsts += 1
                    forward = True
                else:
                    # The vault-queue push (StallQueue.push semantics).
                    vq = vaults[flight.vault].rqst_queue
                    n = len(vq._q) + 1
                    if n > vq.depth:
                        vq.stalls += 1
                        if tracer.mask & _T_STALL:
                            tracer.trace_stall(
                                cycle,
                                where=f"vault{flight.vault}.rqst",
                                dev=dev,
                                src=link_id,
                            )
                        break
                    vq._q.append(flight)
                    vq.pushes += 1
                    if n > vq.high_water:
                        vq.high_water = n
                    active_vaults.add(flight.vault)
                dq.popleft()
                moved += 1
                if flow is not None and flight.link_seq >= 0:
                    # Out of the crossbar: release the retry-buffer
                    # slot and return the tokens.
                    flow.acknowledge(dev, link_id, flight.link_seq)
                if forward:
                    sim.topology.forward_request(dev, flight, link_id)
            if moved:
                queue.pops += moved
                xbar.rqst_occ -= moved
