"""Vault controller: request queues, banks, and request execution.

This module is the reconstruction of ``hmcsim_process_rqst`` — the
"packet processing step" of §IV.C.2 where most of HMC-Sim's work
happens.  Each vault owns a bounded request queue (depth 64 in the
paper's evaluation) and its banks.  Every cycle the vault walks its
whole queue — the queue models in-flight capacity, not issue
serialization: a request whose bank is busy is skipped (a *bank
conflict*), and the walk ends when the per-cycle response budget is
spent or the response path fills, parking that one response — both
produce trace events and the queueing pressure behind the paper's
Figures 5-7.  The walk has one body, :meth:`FIFOVaultScheduler.scan`;
a scheduling policy only chooses the order it visits entries in.

Execution dispatch, mirroring the paper's Figure 3, runs on the
*execute arm* predecoded into the command table
(``CommandInfo.arm``, resolved once per request at ``Device.send``):

1. CMC command codes are checked against the registry's *active* table;
   inactive codes produce an ``RSP_ERROR`` response (the C code returns
   an error from ``hmcsim_process_rqst``).
2. Active CMC commands execute through the plugin's resolved
   ``cmc_execute`` function; on success a trace entry is inserted using
   the plugin's ``cmc_str`` name and normal response construction
   resumes.
3. Specification commands take the built-in arms: read, write, mode
   register access, or the Gen2 atomic unit (:mod:`repro.hmc.amo`).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    CMCExecutionError,
    CMCNotActiveError,
    HMCAddressError,
    HMCSimError,
)
from repro.hmc.amo import AMO_TABLE, amo_refusal, run_amo
from repro.hmc.bank import Bank
from repro.hmc.commands import (
    ARM_ATOMIC,
    ARM_CMC,
    ARM_MODE_RD,
    ARM_MODE_WR,
    ARM_READ,
    ARM_WRITE,
    hmc_response_t,
)
from repro.hmc.components import Stateful, VaultScheduler, register_component
from repro.hmc.packet import RequestPacket, ResponsePacket, _rqst_wire
from repro.hmc.queue import StallQueue
from repro.hmc.trace import TraceLevel
from repro.hmc.xbar import Flight

_T_BANK = int(TraceLevel.BANK)
_T_CMD = int(TraceLevel.CMD)
_T_STALL = int(TraceLevel.STALL)
_RSP_ERROR = int(hmc_response_t.RSP_ERROR)
_ZERO8 = bytes(8)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hmc.device import Device

__all__ = [
    "Vault",
    "FIFOVaultScheduler",
    "RoundRobinVaultScheduler",
    "process_rqst",
    "ERRSTAT_GENERIC",
    "ERRSTAT_ADDRESS",
    "ERRSTAT_CMC_INACTIVE",
    "ERRSTAT_CMC_FAILED",
    "ERRSTAT_ECC_UNCORRECTABLE",
]

#: ERRSTAT codes carried by RSP_ERROR responses.
ERRSTAT_GENERIC = 0x01
ERRSTAT_ADDRESS = 0x03
ERRSTAT_CMC_INACTIVE = 0x04
ERRSTAT_CMC_FAILED = 0x05
#: Carried by *poisoned* read responses (DINV set) when the fault
#: layer's SECDED ECC model sees an uncorrectable multi-bit flip.
ERRSTAT_ECC_UNCORRECTABLE = 0x06


class Vault(Stateful):
    """One vault: request queue + banks + issue logic.

    The per-cycle request-pick policy is a pluggable component (seam
    ``vault_scheduler``): :meth:`step` delegates to the vault's
    :class:`~repro.hmc.components.VaultScheduler`, which the owning
    device creates through the component registry.
    """

    STATE = {"processed": 0, "bank_conflicts": 0, "response_stalls": 0}
    PARTS = ("rqst_queue", "banks", "scheduler")

    def __init__(
        self,
        index: int,
        quad: int,
        depth: int,
        num_banks: int,
        dev: int,
        scheduler: Optional[VaultScheduler] = None,
    ):
        self.index = index
        self.quad = quad
        self.dev = dev
        self.rqst_queue: StallQueue = StallQueue(
            depth, f"dev{dev}.vault{index}.rqst"
        )
        self.banks: List[Bank] = [Bank(b) for b in range(num_banks)]
        self.scheduler: VaultScheduler = scheduler or FIFOVaultScheduler()
        self.processed = 0
        self.bank_conflicts = 0
        self.response_stalls = 0
        # A response that could not enter the crossbar queue waits here
        # and blocks the vault until it is accepted (head-of-line
        # blocking).
        self._pending_rsp: Optional[Tuple[Flight, ResponsePacket]] = None

    # Nothing moves a vault but processing, so one that processed
    # nothing is fresh: both walks cost what the run touched.
    def snapshot_state(self) -> Dict[str, Any]:
        return super().snapshot_state() if self.processed else {}

    def restore_state(self, doc: Dict[str, Any]) -> None:
        if doc or self.processed:
            super().restore_state(doc)

    def step(self, device: "Device", cycle: int) -> None:
        """Process the request queue for this cycle.

        Delegates to the vault's scheduler component: the *policy*
        (which queued requests issue, and in what order) is the
        pluggable part; bank occupancy, request execution, and the
        response path are shared mechanism in this module.
        """
        self.scheduler.scan(self, device, cycle)

    def flush_pending(self, device: "Device", cycle: int) -> bool:
        """Retry a blocked response push.  Returns True when unblocked."""
        if self._pending_rsp is None:
            return True
        flight, rsp = self._pending_rsp
        if device.xbar.push_response(flight.src_link, rsp):
            self._pending_rsp = None
            self.processed += 1
            return True
        self.response_stalls += 1
        return False


@register_component("vault_scheduler", "fifo")
class FIFOVaultScheduler(VaultScheduler):
    """HMC-Sim's queue-order scan (seam key ``fifo``, the default).

    HMC-Sim walks the *entire* vault queue each clock: the queue
    models in-flight capacity, not issue serialization.  Entries
    are visited in FIFO order; an entry whose bank is busy records
    a *bank conflict* and is skipped (later entries to other banks
    still proceed — per-bank ordering is preserved, the vault is
    not head-of-line blocked).  Under the baseline model a bank
    access completes within the cycle, so everything queued
    executes in order each clock — which is what lets a queued
    ``hmc_trylock`` acquire a lock in the same cycle the preceding
    ``hmc_unlock`` released it, the fast handoff behind the
    paper's ~4-cycles-per-thread scaling.  Under the timing
    extension a request holds its bank for the DRAM service time
    and its response is produced when service completes.

    The scan stops when the vault's per-cycle response budget is
    exhausted or the response path fills.

    The walk is an allocation-free snapshot-scan: instead of
    copying the queue (``list(vault.rqst_queue)``, one list per
    vault per cycle), it visits the head-of-deque ``n`` times,
    rotating kept entries to the back and popping processed ones.
    After a full scan the kept entries are back in FIFO order; an
    early exit rotates them back explicitly.  Final queue content,
    ordering, and push/pop counters are identical to the copying
    scan.
    """

    def __init__(self, config: object = None):
        # Stateless policy; the config argument satisfies the factory
        # signature shared by every vault_scheduler registration.
        pass

    def scan(
        self,
        vault: Vault,
        device: "Device",
        cycle: int,
        dq: Optional[Deque[Flight]] = None,
    ) -> None:
        """Walk ``dq`` — the vault's queue, or a policy's reordering of
        its entries — removing what issues; the vault queue's counters
        advance either way."""
        queue = vault.rqst_queue
        if dq is None:
            dq = queue._q
        n0 = len(dq)
        if n0 == 0:
            return
        sim = device._sim()
        tracer, tmask = sim.tracer, sim.tracer.mask
        services = (sim, sim.faults, tracer, tmask, sim.power)
        rsp_budget = device.config.vault_rsp_rate
        banks = vault.banks
        xbar = device.xbar
        rsp_queues = xbar.rsp_queues
        timing = sim.timing
        visited = 0
        kept = 0
        # Requests completed and responses queued this scan: the vault
        # queue, vault and crossbar counters advance once, after it.
        done = 0
        pushed = 0
        while visited < n0:
            if rsp_budget <= 0:
                # The vault's response port is exhausted for this
                # cycle; remaining requests wait in the queue.
                break
            flight = dq[0]
            bank = banks[flight.bank]
            if flight.service_until < 0:
                if cycle < bank.busy_until:
                    bank.conflicts += 1
                    vault.bank_conflicts += 1
                    if tmask & _T_BANK:
                        tracer.trace_bank_conflict(
                            cycle,
                            dev=vault.dev,
                            quad=vault.quad,
                            vault=vault.index,
                            bank=flight.bank,
                            addr=flight.pkt.addr,
                        )
                    dq.rotate(-1)
                    kept += 1
                    visited += 1
                    continue
                if timing is None:
                    # Baseline model: a bank access completes within
                    # the cycle it is issued — Bank.occupy(cycle, 0, -1,
                    # True), in this frame.
                    bank.accesses += 1
                    bank.row_hits += 1
                    bank.open_row = -1
                    bank.busy_until = cycle
                else:
                    busy = _occupy(timing, bank, cycle, flight)
                    if busy > 0:
                        # Timing model: the request holds the bank and
                        # its response is produced when service completes.
                        flight.service_until = cycle + busy
                        dq.rotate(-1)
                        kept += 1
                        visited += 1
                        continue
            elif cycle < flight.service_until:
                # DRAM access still in progress.
                dq.rotate(-1)
                kept += 1
                visited += 1
                continue

            rsp = process_rqst(device, flight, cycle, services)

            if rsp is not None:
                # The crossbar response push, in this frame
                # (push_response's counters and high-water semantics).
                rq = rsp_queues[flight.src_link]
                n = len(rq._q) + 1
                if n > rq.depth:
                    # Response path full.  The memory side effect has
                    # already happened, so hold the *response* (not the
                    # request) and block the vault until it is accepted.
                    rq.stalls += 1
                    vault.response_stalls += 1
                    if tmask & _T_STALL:
                        tracer.trace_stall(
                            cycle,
                            where=f"vault{vault.index}.rsp",
                            dev=vault.dev,
                            src=flight.src_link,
                        )
                    vault._pending_rsp = (flight, rsp)
                    dq.popleft()
                    queue.pops += 1
                    break
                rq._q.append(rsp)
                rq.pushes += 1
                if n > rq.high_water:
                    rq.high_water = n
                pushed += 1
                rsp_budget -= 1
            dq.popleft()
            done += 1
            visited += 1
        else:
            # A full scan leaves the kept entries back in FIFO order.
            kept = 0
        if kept:
            dq.rotate(kept)
        queue.pops += done
        vault.processed += done
        xbar.rsp_occ += pushed


@register_component("vault_scheduler", "round_robin")
class RoundRobinVaultScheduler(FIFOVaultScheduler):
    """Bank-fair scan (seam key ``round_robin``).

    Visits queued requests grouped by target bank, starting from a
    bank pointer that advances one bank per cycle, so no bank can
    monopolize the vault's per-cycle response budget.  *Within* a
    bank, requests still issue in arrival (FIFO) order — per-bank
    program order is preserved, so single-location workloads (the
    paper's mutex hot spot) and commutative updates (GUPS XOR) reach
    bit-identical memory states; only cross-bank interleaving, and
    therefore response timing, differs from the ``fifo`` policy.

    Policy only: it computes the visit order and runs
    :meth:`FIFOVaultScheduler.scan` over it, so the response budget,
    bank accounting, timing occupancy and response-path parking are
    that one body's.
    """

    STATE = {"_next_bank": 0}

    def __init__(self, config: object = None):
        self._next_bank = 0

    def scan(self, vault: Vault, device: "Device", cycle: int) -> None:
        dq = vault.rqst_queue._q
        if not dq:
            return
        num_banks = len(vault.banks)
        start = self._next_bank
        self._next_bank = (start + 1) % num_banks
        # Banks take round-robin turns from the start bank while each
        # bank's own requests keep arrival order.
        turns: List[List[Flight]] = [[] for _ in range(num_banks)]
        for flight in dq:
            turns[(flight.bank - start) % num_banks].append(flight)
        order = deque(chain.from_iterable(turns))
        super().scan(vault, device, cycle, order)
        if len(order) != len(dq):
            # The vault queue stays in arrival order: keep what the
            # scan left in the visit order.
            waiting = set(order)
            kept = [flight for flight in dq if flight in waiting]
            dq.clear()
            dq.extend(kept)


def _error_response(
    device: "Device", flight: Flight, errstat: int
) -> ResponsePacket:
    """Build an RSP_ERROR response for a failed request."""
    return ResponsePacket(
        _RSP_ERROR, flight.pkt.tag, device.dev, flight.src_link,
        b"", 0, 0, 0, 0, errstat, 0,
        -1, flight.inject_cycle, flight.origin_dev, flight.src_link,
    )


def process_rqst(
    device: "Device",
    flight: Flight,
    cycle: int,
    services: Optional[Tuple[Any, Any, Any, int, Any]] = None,
) -> Optional[ResponsePacket]:
    """Execute one request against the device — ``hmcsim_process_rqst``.

    ``services`` is what every request of the calling scan shares —
    ``(context, fault controller, tracer, trace mask, power model)``,
    resolved once for the whole scan; a caller outside a scan leaves it
    out and they are resolved here.

    Returns the response packet, or None for posted commands.
    Execution errors never raise out of the pipeline: they become
    ``RSP_ERROR`` responses (or, for *posted* requests, are dropped) so
    a misbehaving request cannot wedge the simulation.  Only CMC
    errors are counted, posted or not: ``device.cmc_rejects`` (inactive
    op) and ``device.cmc_failures`` (the plugin failed).
    """
    pkt: RequestPacket = flight.pkt
    info = flight.info
    if services is None:
        sim = device.sim
        services = (sim, sim.faults, sim.tracer, sim.tracer.mask, sim.power)
    sim, faults, tracer, tmask, power = services

    arm = info.arm
    rsp_cmd: int = info.rsp_cmd_code
    rsp_data = b""
    errstat = 0
    posted = info.posted
    poisoned = False
    op = None  # the CMC operation, when one executed

    try:
        if arm == ARM_ATOMIC:
            # execute_amo's checks, and run_amo's resident-page case here.
            data = pkt.data
            row = AMO_TABLE.get(pkt.cmd)
            if row is None or len(data) != row[1]:
                raise amo_refusal(pkt.cmd, data)
            mem = device._mem
            a = pkt.addr + mem._base
            off = a & mem._pmask
            page = mem._pages.get(a >> mem._shift)
            if page is not None and off + row[4] <= mem._psize and (
                0 <= pkt.addr <= mem.capacity - row[4]
            ):
                rsp_data, errstat, _ = row[0](page, off, data)
            else:
                rsp_data, errstat, _ = run_amo(mem, pkt.addr, row, data)
            if len(rsp_data) != row[2]:
                raise amo_refusal(pkt.cmd, data, rsp_data)
        elif arm == ARM_READ:
            rsp_data = device._mem.read(pkt.addr, info.rsp_bytes)
            if faults is not None and faults.has_dram:
                rsp_data, ecc_stat = faults.dram.on_read(
                    device, flight, rsp_data, cycle
                )
                if ecc_stat:
                    # Uncorrectable ECC: deliver the corrupt data as a
                    # poisoned response rather than silently dropping
                    # the request — the host sees DINV + ERRSTAT.
                    errstat = ecc_stat
                    poisoned = True
        elif arm == ARM_WRITE:
            device._mem.write(pkt.addr, pkt.data)
        elif arm == ARM_CMC:
            if (
                faults is not None
                and faults.has_cmc
                and faults.cmc.crashes(device.dev, flight, cycle)
            ):
                # Injected plugin failure: raise inside the isolation
                # boundary below, so it becomes an RSP_ERROR response
                # exactly like an organically misbehaving plugin.
                raise CMCExecutionError(
                    f"injected CMC crash (cmd {pkt.cmd}, tag {pkt.tag})"
                )
            # pkt._wire(), in this frame: one memoized encode gives the
            # head, the payload words and the tail together.
            data = pkt.data
            head, words, tail = _rqst_wire(
                pkt.cmd, pkt.tag, pkt.addr, pkt.cub, data, pkt.rrp,
                pkt.frp, pkt.seq, pkt.pb, pkt.slid, pkt.rtc,
            )
            # The Table IV argument set, positionally (length is
            # pkt.lng, inlined).
            op, rsp_data, rsp_cmd = sim.cmc.execute(
                sim, device.dev, flight.quad, flight.vault, flight.bank,
                pkt.addr, 1 + len(data) // 16, head, tail, words,
            )
            posted = op.registration.posted
        elif arm == ARM_MODE_RD:
            rsp_data = device.registers.read(pkt.addr).to_bytes(8, "little") + _ZERO8
        elif arm == ARM_MODE_WR:
            device.registers.write(pkt.addr, int.from_bytes(pkt.data[:8], "little"))
        else:
            # ARM_FLOW: flow packets are link-layer; they carry no
            # memory semantics.
            return None
    except CMCNotActiveError:
        device.cmc_rejects += 1
        return None if posted else _error_response(device, flight, ERRSTAT_CMC_INACTIVE)
    except CMCExecutionError:
        device.cmc_failures += 1
        return None if posted else _error_response(device, flight, ERRSTAT_CMC_FAILED)
    except HMCAddressError:
        return None if posted else _error_response(device, flight, ERRSTAT_ADDRESS)
    except HMCSimError:
        return None if posted else _error_response(device, flight, ERRSTAT_GENERIC)

    if tmask & _T_CMD or power is not None:
        # The plugin's trace name; resolved only when something reads it.
        op_name = info.rqst_name if op is None else op.cmc_str()
        if tmask & _T_CMD:
            tracer.trace_rqst(
                cycle,
                op=op_name,
                dev=device.dev,
                quad=flight.quad,
                vault=flight.vault,
                bank=flight.bank,
                addr=pkt.addr,
                length=pkt.lng,
            )
        if power is not None:
            rsp_flits = 1 + len(rsp_data) // 16 if not posted else 0
            pj = power.request_energy(info, pkt.lng, rsp_flits)
            report = sim.power_report
            if report is None:  # a model assigned after construction
                report = sim.power_report = power.new_report()
            report.add(op_name, pj)
            tracer.trace_power(cycle, op=op_name, energy_pj=pj)

    if posted:
        return None
    return ResponsePacket(
        rsp_cmd, pkt.tag, device.dev, flight.src_link,
        rsp_data, 0, 0, 0,
        # A poisoned request (Pb set in the tail) marks its response
        # data invalid, per the specification's poison semantics; an
        # uncorrectable ECC event poisons the response the same way.
        1 if poisoned else pkt.pb,
        errstat, 0,
        -1, flight.inject_cycle, flight.origin_dev, flight.src_link,
    )


def _occupy(timing: Any, bank: Bank, cycle: int, flight: Flight) -> int:
    """Charge the bank for this access under the timing extension.

    Returns the service time in cycles.  (Under the baseline model the
    scans charge the bank themselves: an access completes within the
    cycle it is issued, behaviour being queueing-dominated; the timing
    extension makes banks hold state across cycles, delaying responses
    and producing conflicts.)
    """
    row = flight.row
    busy = timing.request_cycles(flight.info, bank.open_row, row)
    row_hit = bank.open_row == row
    bank.occupy(cycle, busy, row, row_hit)
    return busy
