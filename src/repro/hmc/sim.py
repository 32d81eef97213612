"""Top-level simulation context: the ``hmc_sim_t`` analog.

:class:`HMCSim` owns everything a simulation needs — configuration,
backing memory, address map, devices, the CMC registry, tracing, and
the selected timing/power extensions — and exposes the object-oriented
equivalent of the HMC-Sim user API:

===========================  =====================================
HMC-Sim C function            HMCSim method
===========================  =====================================
``hmcsim_init``               constructor
``hmcsim_load_cmc``           :meth:`load_cmc`
``hmcsim_build_memrequest``   :meth:`build_memrequest`
``hmcsim_send``               :meth:`send`
``hmcsim_recv``               :meth:`recv`
``hmcsim_clock``              :meth:`clock`
``hmcsim_trace_handle``       :meth:`trace_handle`
``hmcsim_trace_level``        :meth:`trace_level`
``hmcsim_jtag_reg_read``      :meth:`jtag_reg_read`
``hmcsim_jtag_reg_write``     :meth:`jtag_reg_write`
``hmcsim_free``               :meth:`free`
===========================  =====================================

A thin functional facade with the original C names lives in
:mod:`repro.compat`.
"""

from __future__ import annotations

from base64 import b64decode, b64encode
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.core.cmc import CMCOperation, CMCRegistry
from repro.core.loader import load_cmc as _load_cmc_plugin
from repro.errors import (
    HMCPacketError,
    HMCSimError,
    HMCStatus,
    SimDeadlockError,
    TagError,
)
from repro.hmc.addrmap import AddressMap
from repro.hmc.commands import (
    ARM_CMC,
    ARM_FLOW,
    COMMAND_TABLE,
    COMMAND_TABLE_LIST,
    hmc_rqst_t,
)
from repro.hmc.components import LinkFlow, Stateful
from repro.hmc.composition import build
from repro.hmc.config import HMCConfig
from repro.hmc.device import Device
from repro.hmc.memory import MemoryBackend
from repro.hmc.packet import MAX_TAG, RequestPacket, ResponsePacket
from repro.hmc.queue import StallQueue
from repro.hmc.topology import Topology
from repro.hmc.trace import TraceLevel, Tracer

__all__ = ["HMCSim", "DeadlockDump", "collect_deadlock_dump"]

#: Table I's answer to "will this command be answered?", per command
#: code: flow and posted commands are silent.  ``None`` marks the CMC
#: codes, whose answer belongs to the registry (see
#: :meth:`HMCSim.expects_response`).
_EXPECTS: Tuple[Optional[bool], ...] = tuple(
    None if info.arm == ARM_CMC else info.arm != ARM_FLOW and not info.posted
    for info in COMMAND_TABLE_LIST
)

#: ``send``'s answers: an Enum member lookup per request is not cheap.
_OK = HMCStatus.OK
_STALL = HMCStatus.STALL

#: One device's :meth:`HMCSim.stats` entry: ``{"queues": {q.name:
#: <q's StallQueue.STATE fields>}, <Device.STATE fields>}``, over the
#: device's queue list.  Compiled once from the checkpoint declarations
#: into dict displays, so it costs what a hand-written key list did (a
#: getattr loop per queue is three times slower).
_DEVICE_STATS = eval(
    "lambda d: {'queues': {q.name: {%s} for q in d.queues}, %s}"
    % tuple(
        ", ".join(f"{field!r}: {var}.{field}" for field in cls.STATE)
        for var, cls in (("q", StallQueue), ("d", Device))
    )
)


class HMCSim(Stateful):
    """One simulation context holding one or more HMC devices.

    Args:
        config: a validated :class:`HMCConfig` (default: ``HMCConfig()``).
        faults: optional :class:`repro.faults.plan.FaultPlan`.  When
            given, the plan is built into a
            :class:`repro.faults.controller.FaultController` stored as
            ``self.faults`` and the datapath's fault hooks activate.
            With no plan (the default) every hook is a single
            ``is None`` test and the datapath is bit-identical to the
            fault-free baseline.

    Every pipeline seam — crossbars, vault schedulers, link flow,
    timing and power (``power_report`` is None without one) — is built
    through the component registry from the selection fields of
    :class:`HMCConfig` (``docs/ARCHITECTURE.md``); the paged memory
    and the daisy-chain topology are built directly.
    """

    def __init__(
        self,
        config: Optional[HMCConfig] = None,
        *,
        faults: Optional[object] = None,
    ):
        if config is None:
            config = HMCConfig()
        self.config = config
        self.timing = build("timing", config)
        self.power = build("power", config)
        self.flow: Optional[LinkFlow] = build("link_flow", config)
        self.power_report = None if self.power is None else self.power.new_report()
        #: The built FaultController when a plan is attached, else None
        #: — every datapath hook gates on this exact attribute.
        self.faults = None
        self.backend = MemoryBackend(config.total_bytes)
        self.addrmap = AddressMap(config)
        self.tracer = Tracer()
        self.cmc = CMCRegistry()
        self.devices = [Device(d, config, self) for d in range(config.num_devs)]
        self._num_devs = config.num_devs
        self._num_links = config.num_links
        self.topology = Topology(self)
        self._cycle = 0
        #: Outstanding (cub, tag) pairs, packed as ``(cub << 11) | tag``
        #: — the tag field is 11 bits, so the packing is collision-free
        #: and avoids a tuple allocation per send/recv.
        self._outstanding: Set[int] = set()
        #: CMC cmd code -> expects-a-response, good for one registry
        #: epoch (``self.cmc.epoch``) only; ``send`` and the host engine
        #: read it inline and call :meth:`expects_response` on a miss.
        self._cmc_expects: Dict[int, bool] = {}
        self._cmc_expects_epoch = -1
        self._initialized = True
        # Aggregate counters.
        self.sent_rqsts = 0
        self.send_stalls = 0
        self.recvd_rsps = 0
        if faults is not None:
            self.attach_faults(faults)

    # -- lifecycle ------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """Current device cycle (number of completed :meth:`clock` calls)."""
        return self._cycle

    def free(self) -> None:
        """Release the context (``hmcsim_free``): further use is an error."""
        self._initialized = False
        self.backend.clear()
        self._outstanding.clear()

    def _check_init(self) -> None:
        if not self._initialized:
            raise HMCSimError("simulation context has been freed")

    # -- fault injection ---------------------------------------------------------

    def attach_faults(self, plan: object):
        """Build a :class:`repro.faults.plan.FaultPlan` against this
        context and activate its datapath hooks.

        Returns the resulting fault controller (also ``self.faults``).
        Duck-typed (``plan.build(self)``) so this core module does not
        depend on the fault package.
        """
        self.faults = plan.build(self)
        return self.faults

    def abandon_tag(self, cub: int, tag: int) -> bool:
        """Forget an outstanding tag so the host may retransmit it.

        Called by the watchdog's retransmission path: clears the
        strict-tag outstanding entry (the retransmitted packet re-adds
        it) and the fault layer's lost-tag record.  Returns True when
        the tag was actually outstanding.
        """
        key = (cub << 11) | tag
        was = key in self._outstanding
        self._outstanding.discard(key)
        if self.faults is not None:
            self.faults.clear_lost(cub, tag)
        return was

    # -- CMC registration (hmc_load_cmc) ----------------------------------------

    def load_cmc(self, source: Union[str, object]) -> CMCOperation:
        """Load a CMC plugin and register it in this context.

        The registration process of §IV.C.2: verify the context is
        initialized, load the library, resolve the three symbols, run
        ``cmc_register``, and install the operation.

        Raises:
            HMCSimError: if the context was freed.
            CMCLoadError: on any load/validation failure (nothing is
                left partially registered).
        """
        self._check_init()
        op = _load_cmc_plugin(source)
        self.cmc.register(op)
        return op

    # -- request construction (hmcsim_build_memrequest) ---------------------------

    def build_memrequest(
        self,
        rqst: hmc_rqst_t,
        addr: int,
        tag: int,
        *,
        cub: int = 0,
        data: bytes = b"",
    ) -> RequestPacket:
        """Build a request packet for any command, including loaded CMC ops.

        For CMC commands the request length comes from the operation's
        registration, so the op must be loaded first.

        Raises:
            HMCPacketError: malformed fields or payload size.
            CMCNotActiveError: a CMC command with no loaded operation.
        """
        if not self._initialized:
            self._check_init()
        # IntEnum members hash like their value: same KeyError contract
        # as command_info(rqst), minus the int() conversion per call.
        info = COMMAND_TABLE[rqst]
        rqst_flits: Optional[int] = None
        if info.arm == ARM_CMC:
            rqst_flits = self.cmc.get(rqst).registration.rqst_len
        return RequestPacket.build(
            rqst, addr, tag, cub=cub, data=data, rqst_flits=rqst_flits
        )

    # -- host traffic (hmcsim_send / hmcsim_recv) -----------------------------------

    def expects_response(self, pkt: RequestPacket) -> bool:
        """Whether ``pkt`` will be answered with a response packet.

        Table I decides for specification commands.  For a CMC code the
        registry does: an unregistered or inactive code is answered with
        ``RSP_ERROR``, a registered active op follows its registration's
        ``posted``.  CMC answers are memoized per registry epoch, so
        ``sim.cmc.register``/``unregister`` and ``op.active`` changes
        made behind :meth:`load_cmc`'s back are honoured.

        Raises:
            IndexError: ``pkt.cmd`` is outside the 7-bit command space.
        """
        cmd = pkt.cmd
        expects = _EXPECTS[cmd]
        if expects is not None:
            return expects
        cmc = self.cmc
        if self._cmc_expects_epoch != cmc.epoch:
            self._cmc_expects.clear()
            self._cmc_expects_epoch = cmc.epoch
        expects = self._cmc_expects.get(cmd)
        if expects is None:
            op = cmc.lookup(cmd)
            expects = self._cmc_expects[cmd] = (
                op is None or not op.active or not op.registration.posted
            )
        return expects

    def send(self, pkt: RequestPacket, *, dev: int = 0, link: int = 0) -> HMCStatus:
        """Inject a request into a device link.

        Returns:
            ``HMCStatus.OK`` on acceptance or ``HMCStatus.STALL`` when
            the link's crossbar queue is full (retry next cycle) —
            the exact contract of ``hmcsim_send``.

        Raises:
            HMCSimError: ``dev`` or the packet's ``cub`` names no cube
                of this context, or ``link`` no link of the device.
            TagError: the tag is already outstanding on this device and
                the request expects a response (the host bug the 11-bit
                TAG field cannot express).
        """
        if not self._initialized:
            self._check_init()
        if not (
            0 <= dev < self._num_devs
            and 0 <= link < self._num_links
            and 0 <= pkt.cub < self._num_devs
        ):
            if 0 <= dev < self._num_devs and 0 <= link < self._num_links:
                raise HMCSimError(f"no cube {pkt.cub} in this context")
            raise self._no_port(dev, link)
        cmd = pkt.cmd
        expects = _EXPECTS[cmd]
        if expects is None and (
            self._cmc_expects_epoch != self.cmc.epoch
            or (expects := self._cmc_expects.get(cmd)) is None
        ):
            # A CMC code the memo cannot answer for this registry epoch.
            expects = self.expects_response(pkt)
        key = (pkt.cub << 11) | pkt.tag
        if expects and key in self._outstanding:
            raise TagError(
                f"tag {pkt.tag} is already outstanding on cube {pkt.cub}"
            )
        if self.devices[dev].send(link, pkt, self._cycle):
            self.sent_rqsts += 1
            if expects:
                self._outstanding.add(key)
            return _OK
        self.send_stalls += 1
        return _STALL

    def _no_port(self, dev: int, link: int) -> HMCSimError:
        """The error for a ``dev``/``link`` pair outside this context."""
        if not 0 <= dev < self._num_devs:
            return HMCSimError(f"no device {dev} in this context")
        return HMCSimError(f"device {dev} has no link {link}")

    def recv(self, *, dev: int = 0, link: int = 0) -> Optional[ResponsePacket]:
        """Collect the oldest retired response on a device link, or None.

        Raises:
            HMCSimError: ``dev`` or ``link`` is outside this context.
        """
        if not self._initialized:
            self._check_init()
        if not (0 <= dev < self._num_devs and 0 <= link < self._num_links):
            raise self._no_port(dev, link)
        rsp = self.devices[dev].links[link].recv()
        if rsp is not None:
            self.recvd_rsps += 1
            self._outstanding.discard((rsp.cub << 11) | rsp.tag)
        return rsp

    def recv_batch(self, *, dev: int = 0, link: int = 0) -> List[ResponsePacket]:
        """Collect *every* retired response on a device link, oldest first.

        Equivalent to calling :meth:`recv` until it returns ``None``,
        in one pass: the link's whole retire buffer moves out as a
        list, counters advance by the batch size, and every tag is
        discharged.  This is the batched host-side retirement path —
        one call per link per cycle instead of one call per response.
        """
        if not self._initialized:
            self._check_init()
        if not (0 <= dev < self._num_devs and 0 <= link < self._num_links):
            raise self._no_port(dev, link)
        retired = self.devices[dev].links[link].retired
        if not retired:
            return []
        out = list(retired)
        retired.clear()
        self.recvd_rsps += len(out)
        discard = self._outstanding.discard
        for rsp in out:
            discard((rsp.cub << 11) | rsp.tag)
        return out

    # -- time (hmcsim_clock) -----------------------------------------------------

    def clock(self, cycles: int = 1) -> int:
        """Advance the whole context by ``cycles`` device cycles.

        When nothing is in flight anywhere (no active vault, empty
        crossbars, no in-transit chain traffic, no scheduled replays)
        the remaining cycles are an idle fast-forward: ``_cycle``
        advances without running the per-device phases, which are all
        no-ops on empty structures.  The check runs per iteration, so
        work injected mid-``clock`` (none today — hosts inject between
        calls) would still be honoured cycle-accurately.
        """
        if not self._initialized:
            self._check_init()
        multi = self.config.num_devs > 1
        devices = self.devices
        for i in range(cycles):
            if self._quiescent():
                self._cycle += cycles - i
                break
            for device in devices:
                device.clock(self._cycle)
            if multi:
                self.topology.clock(self._cycle)
            self._cycle += 1
        return self._cycle

    def _quiescent(self) -> bool:
        """O(active) idle test used by :meth:`idle` and the fast-forward."""
        if self.topology.in_transit:
            return False
        flow = self.flow
        if flow is not None and flow.has_pending_replays():
            return False
        for device in self.devices:
            if device.busy():
                return False
        return True

    def drain(self, *, max_cycles: int = 100_000) -> int:
        """Clock until no request or response remains in flight.

        Returns the number of cycles consumed.

        Raises:
            SimDeadlockError: if the context does not drain within
                ``max_cycles`` (a livelock would otherwise spin
                forever).  The exception carries a :class:`DeadlockDump`
                naming every stuck tag, nonempty queue, and token balance.
        """
        start = self._cycle
        for _ in range(max_cycles):
            if self.idle():
                return self._cycle - start
            self.clock()
        raise SimDeadlockError(
            f"context did not drain within {max_cycles} cycles",
            dump=collect_deadlock_dump(self),
        )

    def idle(self) -> bool:
        """True when no packet is queued anywhere in the context.

        O(active): topology transit count, the flow model's public
        replay index (:meth:`LinkFlowModel.has_pending_replays`), and
        each device's O(1) :meth:`Device.busy` check — no scan over
        queues or vaults.
        """
        return self._quiescent()

    # -- tracing (hmcsim_trace_*) ---------------------------------------------------

    def trace_handle(self, handle: Optional[IO[str]]) -> None:
        """Attach a trace output stream (``hmcsim_trace_handle``)."""
        self.tracer.set_handle(handle)

    def trace_level(self, level: TraceLevel) -> None:
        """Set the trace category bitmask (``hmcsim_trace_level``)."""
        self.tracer.set_level(level)

    # -- JTAG (hmcsim_jtag_reg_read / write) -------------------------------------------

    def jtag_reg_read(self, dev: int, reg: int) -> int:
        """Read a device register through the simulated JTAG port."""
        self._check_init()
        if not 0 <= dev < self._num_devs:
            raise HMCSimError(f"no device {dev} in this context")
        return self.devices[dev].registers.read(reg)

    def jtag_reg_write(self, dev: int, reg: int, value: int) -> None:
        """Write a device register through the simulated JTAG port."""
        self._check_init()
        if not 0 <= dev < self._num_devs:
            raise HMCSimError(f"no device {dev} in this context")
        self.devices[dev].registers.write(reg, value)

    # -- direct memory access (host-side setup/verification) ------------------------

    def mem_read(self, addr: int, nbytes: int, *, dev: int = 0) -> bytes:
        """Read device-local memory directly (no packets, no cycles).

        Used for simulation setup/verification and by CMC plugins,
        which receive this context as their ``hmc`` argument (so the
        checks are inline; the device's view checks the bounds).
        """
        if not self._initialized:
            self._check_init()
        if not 0 <= dev < self._num_devs:
            raise HMCSimError(f"no device {dev} in this context")
        return self.devices[dev]._mem.read(addr, nbytes)

    def mem_write(self, addr: int, data: bytes, *, dev: int = 0) -> None:
        """Write device-local memory directly (no packets, no cycles)."""
        if not self._initialized:
            self._check_init()
        if not 0 <= dev < self._num_devs:
            raise HMCSimError(f"no device {dev} in this context")
        self.devices[dev]._mem.write(addr, data)

    # -- checkpointing --------------------------------------------------------------

    STATE = {"_cycle": 0, "sent_rqsts": 0, "send_stalls": 0, "recvd_rsps": 0}
    PARTS = ("devices", "topology", "flow", "faults", "power_report")

    def snapshot_state(self) -> Dict[str, object]:
        """:class:`Stateful` state plus resident pages and each loaded
        CMC op's source, count and ``active`` flag."""
        doc = super().snapshot_state()
        pages = [
            [base, b64encode(content).decode("ascii")]
            for base, content in self.backend.iter_resident()
        ]
        if pages:
            doc["pages"] = pages
        cmc = [
            [op.source, op.cmd, op.executions, op.active]
            for op in self.cmc.operations()
        ]
        if cmc:
            doc["cmc"] = cmc
        return doc

    def restore_state(self, doc: Dict[str, object]) -> None:
        """Load :meth:`snapshot_state`'s dict, re-loading CMC plugins
        recorded with a source (inline ones must be registered first)."""
        for source, cmd, executions, active in doc.get("cmc", ()):
            op = self.cmc.lookup(cmd)
            if op is None:
                if source == "<inline>":
                    raise HMCSimError(
                        f"checkpoint carries CMC operation for command code "
                        f"{cmd} registered inline — re-register it on the "
                        f"target context before restoring"
                    )
                op = self.load_cmc(source)
            op.executions, op.active = executions, active
        self.backend.clear()
        for base, data in doc.get("pages", ()):
            self.backend.write(base, b64decode(data))
        super().restore_state(doc)

    # -- statistics ---------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Aggregate context statistics (queues, counters, CMC, power)."""
        per_dev = {
            f"dev{device.dev}": _DEVICE_STATS(device) for device in self.devices
        }
        out: Dict[str, object] = {
            "cycle": self._cycle,
            "sent_rqsts": self.sent_rqsts,
            "send_stalls": self.send_stalls,
            "recvd_rsps": self.recvd_rsps,
            "outstanding": len(self._outstanding),
            "cmc_ops": {
                op.op_name: op.executions for op in self.cmc.operations()
            },
            "energy_pj": 0.0 if self.power_report is None else self.power_report.total_pj,
            "devices": per_dev,
        }
        if self.faults is not None:
            # Only present under an attached plan, so fault-free stats
            # output (and anything golden-pinned to it) is unchanged.
            out["faults"] = self.faults.counters()
        return out

    def link_flits(self) -> int:
        """Request+response FLITs moved across every link so far."""
        return sum(
            link.flits_in + link.flits_out
            for device in self.devices
            for link in device.links
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HMCSim({self.config.describe()}, devs={self.config.num_devs}, "
            f"cycle={self._cycle}, cmc_ops={len(self.cmc)})"
        )


# -- deadlock diagnostics -------------------------------------------------------
#
# A hang becomes a readable dump: outstanding tags, every nonempty
# queue, link-layer token balances, in-transit topology packets and
# fault bookkeeping, rendered into the SimDeadlockError message so a
# hang is diagnosable from the traceback alone.

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
    sim: HMCSim, extra: Optional[Mapping[str, Any]] = None
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
