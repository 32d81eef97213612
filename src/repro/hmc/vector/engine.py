"""The vector engine: a flight-table crossbar behind the ``xbar`` seam.

:class:`VectorXBar` subclasses the bounded-queue :class:`XBar` so every
inherited code path (queue depths, counters, stall accounting, the
scalar drain) stays available, and adds two *capability hooks* the core
:class:`~repro.hmc.device.Device` discovers with ``getattr``:

``fast_send(device, pkt, link, cycle)``
    Called by ``Device.send`` before the scalar path builds a
    :class:`Flight`.  Returns ``None`` to decline (scalar path runs),
    else the accept/stall bool.  On accept the request becomes a row
    in the :class:`~repro.hmc.vector.flight_table.FlightTable` and the
    row *index* is what sits in the real per-link ``StallQueue`` — all
    push/pop/stall/high-water counters stay live, so ``stats()`` and
    the invariant checker see exactly the scalar engine's numbers.

``device_cycle(device, cycle)``
    Called by ``Device.clock``.  Returns True when it advanced all
    three phases (retire, vault execute, crossbar drain) over table
    rows; False hands the cycle to the scalar phases.

Bit-identity over raw speed: each phase replicates the scalar engine's
visit order, budgets, and counter updates exactly — the engine-parity
goldens, the serial-vs-vector sweep digest, and the differential-oracle
fuzz burn-down all pin this.  Requests *execute* through the one true
``process_rqst`` via a reusable scratch :class:`Flight` whose fields
are loaded from the row, so CMC plugin execution, AMO semantics, and
error-response construction are shared with the scalar engine by
construction, not by copy.

Mode machine
------------
A fresh ``VectorXBar`` is *undecided*.  The first ``Device.send``
decides:

* vector — single cube, no timing/power/flow model, FIFO vault
  scheduler, no faults, tracing off;
* scalar — anything else, including a raw ``inject`` from a driver
  (or the topology, or a link replay) that hands in a built flight.

Vector mode re-checks the *mutable* conditions (faults attached,
tracing enabled, a timing/power/flow model set post-construction)
every send and every cycle; when one flips, the table **spills** —
every row is rebuilt as a real :class:`Flight` in queue order via
``Device.route_flight`` — and the engine stays scalar from then on.
The handoff is exact: the scalar phases run the very same cycle over
the spilled objects.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, List, Optional

from repro.hmc.commands import COMMAND_TABLE_LIST, CommandKind
from repro.hmc.vector.batch import BatchExecutor
from repro.hmc.vector.flight_table import (
    F_INJECT,
    F_ROUTE,
    F_SRC_LINK,
    PHASE_VAULT as _PHASE_VAULT,
    PHASE_XBAR as _PHASE_XBAR,
    FlightTable,
)
from repro.hmc.xbar import Flight, XBar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hmc.config import HMCConfig
    from repro.hmc.device import Device
    from repro.hmc.packet import RequestPacket, ResponsePacket

__all__ = ["VectorXBar"]

_FLOW = CommandKind.FLOW
#: Per-command-code FLOW test, hoisted out of the inject hot path.
_IS_FLOW = tuple(info.kind is _FLOW for info in COMMAND_TABLE_LIST)

_SCALAR, _UNDECIDED, _VECTOR = 0, 1, 2
_MODE_NAMES = ("scalar", "undecided", "vector")


class VectorXBar(XBar):
    """Flight-table batch crossbar + datapath (seam key ``vector``)."""

    def __init__(self, config: "HMCConfig", dev: int):
        super().__init__(config, dev)
        self._mode = _UNDECIDED
        self._table = FlightTable()
        # Weak (a ``weakref.ref`` once vector mode is entered): the
        # device owns its crossbar, not the other way round, so a
        # dropped context is freed by reference count.
        self._device: Optional["weakref.ref[Device]"] = None
        # One reusable Flight, loaded per row right before execution:
        # process_rqst (and with it CMC dispatch, AMO, error responses)
        # runs unmodified, with no per-request allocation.
        self._scratch = Flight(
            pkt=None,  # type: ignore[arg-type]
            src_link=0,
            inject_cycle=0,
            vault=0,
            bank=0,
            quad=0,
            origin_dev=dev,
            info=None,  # type: ignore[arg-type]
            row=0,
        )
        # The columnar vault phase: plans queue bookkeeping in scalar
        # order, executes deferred rows as batched numpy passes.
        self._batch = BatchExecutor(self, self._scratch)

    # -- mode machine ----------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"undecided"``, ``"vector"``, or ``"scalar"`` (tests/debug)."""
        return _MODE_NAMES[self._mode]

    def _dynamic_ok(self, device: "Device") -> bool:
        """The per-cycle re-checked half of the vector gate."""
        sim = device._sim()  # device.sim, minus the property call (per send)
        return (
            sim.faults is None
            and not sim.tracer.mask
            and sim.timing is None
            and sim.power is None
            and sim.flow is None
        )

    def _static_ok(self, device: "Device") -> bool:
        """The decide-once half of the vector gate."""
        config = device.config
        return (
            device.sim.config.num_devs == 1
            and config.vault_scheduler == "fifo"
        )

    def _go_scalar(self, device: Optional["Device"] = None) -> None:
        if device is None and self._device is not None:
            device = self._device()  # raw queue API: the bound device
        if self._mode == _VECTOR and device is not None:
            self._spill(device)
        else:
            self._mode = _SCALAR

    def _spill(self, device: "Device") -> None:
        """Rebuild every table row as a Flight, in place, in order.

        The one-way vector→scalar handoff: queue entries (row indices)
        become :class:`Flight` objects with routing recomputed by
        ``Device.route_flight``, counters untouched — the scalar
        phases take over the same cycle with identical state.
        """
        table = self._table
        pkts = table.pkts
        item = table.item
        dev = device.dev

        def materialize(idx: int) -> Flight:
            row = item(idx)
            return device.route_flight(
                pkts[idx], row[F_SRC_LINK], row[F_INJECT], origin_dev=dev
            )

        for q in self.rqst_queues:
            dq = q._q
            if dq:
                flights = [materialize(i) for i in dq]
                dq.clear()
                dq.extend(flights)
        for vault in device.vaults:
            dq = vault.rqst_queue._q
            if dq:
                flights = [materialize(i) for i in dq]
                dq.clear()
                dq.extend(flights)
        table.clear()
        self._mode = _SCALAR

    # -- capability hooks (discovered by Device with getattr) ------------------

    def fast_send(
        self, device: "Device", pkt: "RequestPacket", link: int, cycle: int
    ) -> Optional[bool]:
        """Vector-mode inject; None declines to the scalar send path."""
        mode = self._mode
        if mode == _SCALAR:
            return None
        if not self._dynamic_ok(device):
            self._go_scalar(device)
            return None
        if mode == _UNDECIDED:
            if not self._static_ok(device):
                self._mode = _SCALAR
                return None
            self._mode = _VECTOR
            self._device = weakref.ref(device)
        pkt.slid = link
        q = self.rqst_queues[link]
        n = len(q._q) + 1
        if n > q.depth:
            q.stalls += 1
            return False
        addr = pkt.addr
        local = addr & device._cap_mask
        vault = (local >> device._vault_lo) & device._vault_mask
        # FlightTable.alloc, inlined: the send path is the hottest
        # per-request code in the engine, and the call plus argument
        # packing is measurable at depth.
        table = self._table
        free = table._free
        if not free:
            table._grow()
            free = table._free
        idx = free.pop()
        seq = table._seq
        table._seq = seq + 1
        cmd = pkt.cmd
        table.meta[idx] = (
            pkt.tag,
            pkt.cub,
            vault,
            (local >> device._bank_lo) & device._bank_mask,
            device._quads_of_vaults[vault],
            (local >> device._row_lo) & device._row_mask,
            _PHASE_XBAR,
            cycle,
            1 + len(pkt.data) // 16,
            cmd,
            link,
            seq,
            cycle,
            -1 if _IS_FLOW[cmd] else vault,
            addr,
        )
        table.phase[idx] = _PHASE_XBAR
        table.pkts[idx] = pkt
        table.active += 1
        q._q.append(idx)
        q.pushes += 1
        if n > q.high_water:
            q.high_water = n
        self.rqst_occ += 1
        return True

    def device_cycle(self, device: "Device", cycle: int) -> bool:
        """Run all three device phases over table rows; False = scalar."""
        if self._mode != _VECTOR:
            return False
        if not self._dynamic_ok(device):
            self._spill(device)
            return False
        self._retire_phase(device, cycle)
        self._batch.vault_phase(device, cycle)
        self._drain_phase(device, cycle)
        return True

    # -- the three phases, in scalar visit order -------------------------------

    def _retire_phase(self, device: "Device", cycle: int) -> None:
        # Scalar twin: Device._phase_retire.  Gate guarantees a single
        # cube (no topology return trips), no response faults, and
        # tracing off, so retirement is the pure rate-limited move.
        if not self.rsp_occ:
            return
        rate = self.config.link_rsp_rate
        rsp_queues = self.rsp_queues
        for link in device.links:
            q = rsp_queues[link.link_id]
            dq = q._q
            if not dq:
                continue
            n = min(rate, len(dq))
            retired = link.retired
            flits = 0
            for _ in range(n):
                rsp = dq.popleft()
                rsp.retire_cycle = cycle
                retired.append(rsp)
                flits += 1 + len(rsp.data) // 16
            q.pops += n
            link.rsps_out += n
            link.flits_out += flits
            self.rsp_occ -= n
            device.retired_rsps += n

    def _drain_phase(self, device: "Device", cycle: int) -> None:
        # Scalar twin: Device._phase_xbar_drain with no flow model
        # (pinned by the gate): each link's queue drains fully, in
        # ascending link order, blocking only on a full vault queue.
        if not self.rqst_occ:
            return
        rqst_queues = self.rqst_queues
        vaults = device.vaults
        table = self._table
        meta = table.meta
        phase = table.phase
        active_vaults = device._active_vaults
        # Per-row counter updates are batched: queue.pops/rqst_occ per
        # link after its walk, vault pushes/high-water per touched
        # vault at the end.  Occupancy grows monotonically during the
        # drain (the vault phase already ran), so the final length IS
        # the cycle's high-water mark.
        pushed: dict = {}
        for link_id in range(self.config.num_links):
            queue = rqst_queues[link_id]
            dq = queue._q
            npop = 0
            nflow = 0
            while dq:
                idx = dq[0]
                route = meta[idx][F_ROUTE]
                if route < 0:
                    # Flow packets are consumed at the link layer.
                    dq.popleft()
                    npop += 1
                    nflow += 1
                    table.free_row(idx)
                    continue
                vq = vaults[route].rqst_queue
                if len(vq._q) >= vq.depth:
                    vq.stalls += 1
                    break
                dq.popleft()
                npop += 1
                vq._q.append(idx)
                if route in pushed:
                    pushed[route] += 1
                else:
                    pushed[route] = 1
                phase[idx] = _PHASE_VAULT
            if npop:
                queue.pops += npop
                self.rqst_occ -= npop
            if nflow:
                device.flow_packets += nflow
        for route, k in pushed.items():
            vq = vaults[route].rqst_queue
            vq.pushes += k
            n = len(vq._q)
            if n > vq.high_water:
                vq.high_water = n
            active_vaults.add(route)

    # -- raw queue API: decide scalar / spill on first touch -------------------
    # ``inject`` takes a Flight object; a driver (or test) using it
    # while rows are in flight gets the spilled state.  The response
    # side always holds real ResponsePackets, so the inherited
    # push_response needs no guard.

    def inject(self, link: int, flight: Flight) -> bool:
        if self._mode != _SCALAR:
            self._go_scalar()
        return super().inject(link, flight)

    # -- capabilities for observers --------------------------------------------

    def resolve_tag(self, entry: int) -> tuple:
        """``(cub, tag)`` of a queued row index (invariant checker)."""
        return self._table.cub_tag(entry)

    def inflight_snapshot(self) -> List[dict]:
        """Live flight-table rows in allocation order (tests/export)."""
        return self._table.snapshot()
