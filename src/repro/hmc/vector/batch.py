"""Columnar vault execution: the vector engine's batch datapath.

:class:`BatchExecutor` replaces the per-row scratch-``Flight`` walk of
the original vector vault phase with a **plan / execute / dispatch**
split over the ready rows of the
:class:`~repro.hmc.vector.flight_table.FlightTable`:

1. **Plan** walks the active vaults in the exact scalar visit order —
   pending-response flush first, then the head-of-deque budget walk
   with bank-conflict rotation — doing *all* queue bookkeeping (pops,
   stalls, high-water, per-cycle response budget, park decisions) on
   int row handles, but deferring request *execution*.  Response-queue
   space is tracked as planned occupancy so park decisions come out
   bit-identical to the scalar engine's post-execute ``push_response``
   check.
2. **Execute** partitions each deferred run of rows by command kind and
   executes the non-CMC kinds columnar-ly: read addresses gather
   through a :class:`ColumnarMemory` (numpy views over the paged
   backing store), writes scatter their payloads page-grouped, and the
   simple AMO families (add/inc/bitwise/swap/bwr) compute on the
   gathered operand matrix as ``<u8`` limb arithmetic.  Mode-register
   ops and the conditional atomics (CAS/EQ) run per-row; CMC plugin
   commands execute at their exact plan position through the one true
   ``process_rqst`` via the engine's scratch ``Flight``, with every
   earlier deferred row flushed first so memory ordering is preserved.
   A batch whose row footprints overlap (any writer) falls back to
   ordered per-row execution — same results, no reordering hazard.
3. **Dispatch** replays the planned response pushes in plan order into
   the real crossbar response queues (counters identical to the scalar
   push sequence) and parks blocked responses in
   ``vault._pending_rsp`` — as a directly-constructed :class:`Flight`
   carrying the row's already-decoded routing, the cheap twin of
   ``Device.route_flight``.

Nothing reads the response queues between plan and dispatch inside a
device cycle (retirement ran first), so the deferred pushes observe
exactly the state the scalar engine's interleaved pushes would.
Bit-identity is pinned by the engine-parity goldens, the sweep digest,
and the oracle fuzz burn-down (including the ``deep_queue`` profile).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.errors import HMCAddressError, HMCSimError
from repro.hmc.amo import execute_amo
from repro.hmc.commands import (
    ARM_ATOMIC,
    ARM_CMC,
    ARM_MODE_RD,
    ARM_MODE_WR,
    ARM_READ,
    ARM_WRITE,
    COMMAND_TABLE_LIST,
    hmc_response_t,
    hmc_rqst_t,
)
from repro.hmc.memory import MemoryView
from repro.hmc.packet import ResponsePacket
from repro.hmc.vault import (
    ERRSTAT_ADDRESS,
    ERRSTAT_GENERIC,
    process_rqst,
)
from repro.hmc.vector.flight_table import (
    F_ADDR,
    F_BANK,
    F_CMD,
    F_FLITS,
    F_INJECT,
    F_QUAD,
    F_ROW,
    F_SRC_LINK,
    F_VAULT,
    PHASE_FREE,
)
from repro.hmc.xbar import Flight

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hmc.device import Device
    from repro.hmc.vector.engine import VectorXBar

__all__ = ["BatchExecutor", "ColumnarMemory"]

_RSP_ERROR = int(hmc_response_t.RSP_ERROR)

# -- per-command tables over the dense code space -------------------------------
# The classification is the command table's predecoded execute arm,
# the one process_rqst dispatches on.

_KIND = tuple(info.arm for info in COMMAND_TABLE_LIST)
#: None marks CMC codes (posted-ness resolved by the plugin registry).
_HAS_RSP = tuple(
    None if info.arm == ARM_CMC else not info.posted
    for info in COMMAND_TABLE_LIST
)
_RSP_CMD = tuple(info.rsp_cmd_code for info in COMMAND_TABLE_LIST)
_RSP_BYTES = tuple(info.rsp_bytes for info in COMMAND_TABLE_LIST)
_RQ_BYTES = tuple(info.rqst_bytes for info in COMMAND_TABLE_LIST)

_R = hmc_rqst_t
#: Memory bytes touched by each atomic (operand footprint).
_AMO_FOOT: Dict[int, int] = {}
for _c in (_R.TWOADD8, _R.P_2ADD8, _R.TWOADDS8R, _R.ADD16, _R.P_ADD16,
           _R.ADDS16R, _R.XOR16, _R.OR16, _R.NOR16, _R.AND16, _R.NAND16,
           _R.CASGT16, _R.CASLT16, _R.CASZERO16, _R.EQ16, _R.SWAP16):
    _AMO_FOOT[int(_c)] = 16
for _c in (_R.INC8, _R.P_INC8, _R.BWR, _R.P_BWR, _R.BWR8R,
           _R.CASEQ8, _R.CASGT8, _R.CASLT8, _R.EQ8):
    _AMO_FOOT[int(_c)] = 8

#: Footprint per command code: read = response bytes, write = dynamic
#: (payload length, -1 here), atomic = operand bytes, rest = 0.
_FOOT = tuple(
    _RSP_BYTES[c] if _KIND[c] == ARM_READ
    else (-1 if _KIND[c] == ARM_WRITE else _AMO_FOOT.get(c, 0))
    for c in range(len(COMMAND_TABLE_LIST))
)

#: The unconditional read-modify-write atomics with a columnar kernel.
_AMO_ADD2 = frozenset(map(int, (_R.TWOADD8, _R.P_2ADD8, _R.TWOADDS8R)))
_AMO_ADD16 = frozenset(map(int, (_R.ADD16, _R.P_ADD16, _R.ADDS16R)))
_AMO_INC = frozenset(map(int, (_R.INC8, _R.P_INC8)))
_AMO_BOOL = frozenset(map(int, (_R.XOR16, _R.OR16, _R.NOR16, _R.AND16, _R.NAND16)))
_AMO_BWR = frozenset(map(int, (_R.BWR, _R.P_BWR, _R.BWR8R)))
_AMO_SWAP = frozenset((int(_R.SWAP16),))
_AMO_COL = _AMO_ADD2 | _AMO_ADD16 | _AMO_INC | _AMO_BOOL | _AMO_BWR | _AMO_SWAP
#: Fetch-op variants returning the original 16-byte operand.
_AMO_RET16 = frozenset(map(int, (_R.TWOADDS8R, _R.ADDS16R, _R.XOR16, _R.OR16,
                                 _R.NOR16, _R.AND16, _R.NAND16, _R.SWAP16)))
_AMO_RET8 = frozenset((int(_R.BWR8R),))  # original 8 bytes, zero-padded

#: Below this batch width the numpy kernels lose to direct access.
_COL_MIN = 4

_ZERO8 = bytes(8)

# Plan-entry dispositions (entry = [disp, src, rsp, pkt, row, vault]).
_D_READY = 0        # rsp materialized at plan time (flush / CMC): push
_D_EXEC = 1         # deferred execute: push the synthesized response
_D_EXEC_PARK = 2    # deferred execute: park the response in the vault
_D_EXEC_POSTED = 3  # deferred execute: no response
_D_READY_PARK = 4   # rsp materialized at plan time (CMC): park

_ZEROS: Dict[int, bytes] = {}


def _zeros(size: int) -> bytes:
    blk = _ZEROS.get(size)
    if blk is None:
        blk = _ZEROS[size] = bytes(size)
    return blk


class ColumnarMemory:
    """Batch gather/scatter over a :class:`MemoryView`'s paged store.

    Rows are grouped by backing page; pages holding several rows move
    through one numpy fancy-index pass over a ``frombuffer`` view of
    the page (``bytearray`` buffers are writable, so scatters mutate
    the store in place), singleton pages take the direct slice path,
    and cold pages read as zeros without materializing.  Callers
    bounds-check and exclude page-crossing rows first; ``read1`` /
    ``write1`` are the bounds-checked single-row twins used by the
    ordered fallback.
    """

    __slots__ = ("view", "capacity", "_base", "_pages", "_shift", "_psize", "_pmask")

    def __init__(self, view: MemoryView):
        self.view = view
        self.capacity = view.capacity
        self._base = view._base
        self._pages = view._pages
        self._shift = view._shift
        self._psize = view._psize
        self._pmask = view._pmask

    @property
    def page_size(self) -> int:
        return self._psize

    @property
    def page_mask(self) -> int:
        return self._pmask

    def read1(self, addr: int, nbytes: int) -> bytes:
        """Bounds-checked single read (the ``MemoryView.read`` twin)."""
        if addr < 0 or addr + nbytes > self.capacity:
            raise HMCAddressError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside "
                f"view capacity {self.capacity:#x}"
            )
        a = self._base + addr
        off = a & self._pmask
        if off + nbytes <= self._psize:
            page = self._pages.get(a >> self._shift)
            if page is None:
                return bytes(nbytes)
            return bytes(page[off : off + nbytes])
        return self.view.read(addr, nbytes)

    def write1(self, addr: int, data: bytes) -> None:
        """Bounds-checked single write (the ``MemoryView.write`` twin)."""
        nbytes = len(data)
        if addr < 0 or addr + nbytes > self.capacity:
            raise HMCAddressError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside "
                f"view capacity {self.capacity:#x}"
            )
        a = self._base + addr
        off = a & self._pmask
        if off + nbytes <= self._psize:
            page_no = a >> self._shift
            page = self._pages.get(page_no)
            if page is None:
                page = bytearray(self._psize)
                self._pages[page_no] = page
            page[off : off + nbytes] = data
            return
        self.view.write(addr, data)

    def gather(self, addrs: List[int], size: int) -> List[bytes]:
        """Batch read: per-address ``bytes`` of length ``size``.

        Addresses must be in bounds and not cross a page boundary.
        Direct ``bytearray`` slicing is already memcpy-speed per row —
        numpy fancy-indexing measured *slower* at realistic batch
        widths — so the win here is the hoisted page/offset arithmetic
        and the zero-copy cold-page path.
        """
        pages = self._pages
        shift = self._shift
        pmask = self._pmask
        base = self._base
        cold = _zeros(size)
        out: List[bytes] = []
        append = out.append
        for addr in addrs:
            a = addr + base
            page = pages.get(a >> shift)
            if page is None:
                append(cold)
            else:
                off = a & pmask
                append(bytes(page[off : off + size]))
        return out

    def scatter(self, items: List[tuple], size: int) -> None:
        """Batch write of ``(addr, data)`` pairs, all ``size`` bytes.

        Addresses must be in bounds, non-overlapping, and not cross a
        page boundary.
        """
        pages = self._pages
        shift = self._shift
        pmask = self._pmask
        psize = self._psize
        base = self._base
        for addr, data in items:
            a = addr + base
            page_no = a >> shift
            page = pages.get(page_no)
            if page is None:
                page = bytearray(psize)
                pages[page_no] = page
            off = a & pmask
            page[off : off + size] = data

    def scatter_mat(self, addrs: List[int], mat: np.ndarray) -> None:
        """Batch write of matrix rows (same constraints as scatter)."""
        size = mat.shape[1]
        blob = memoryview(mat.tobytes())
        self.scatter(
            [(a, blob[i * size : (i + 1) * size]) for i, a in enumerate(addrs)],
            size,
        )


class BatchExecutor:
    """The columnar vault phase of :class:`VectorXBar`."""

    __slots__ = ("_xbar", "_scratch", "_col")

    def __init__(self, xbar: "VectorXBar", scratch: Flight):
        # Weak: the crossbar owns its executor (and, through ``_col``,
        # the executor pins the device's memory view).
        self._xbar = weakref.proxy(xbar)
        self._scratch = scratch
        self._col: Optional[ColumnarMemory] = None

    # -- plan + dispatch -------------------------------------------------------

    def vault_phase(self, device: "Device", cycle: int) -> None:
        """Scalar twin of ``Device._phase_vault_execute`` over table rows."""
        active = device._active_vaults
        if not active:
            return
        col = self._col
        if col is None or col.view is not device._mem:
            col = self._col = ColumnarMemory(device._mem)
        xbar = self._xbar
        vaults = device.vaults
        rate = device.config.vault_rsp_rate
        table = xbar._table
        pkts = table.pkts
        meta = table.meta
        freed: List[int] = []
        rsp_queues = xbar.rsp_queues
        depth = rsp_queues[0].depth
        planned = [len(q._q) for q in rsp_queues]
        plan: List[list] = []
        append = plan.append
        pend = 0  # first plan index whose execution is still deferred
        has_rsp_of = _HAS_RSP
        for index in sorted(active):
            vault = vaults[index]
            pending = vault._pending_rsp
            if pending is not None:
                # Vault.flush_pending with the push deferred to dispatch.
                src = pending[0].src_link
                if planned[src] >= depth:
                    rsp_queues[src].stalls += 1
                    vault.response_stalls += 1
                    continue
                planned[src] += 1
                append([_D_READY, src, pending[1], None, None, None])
                vault._pending_rsp = None
                vault.processed += 1
            queue = vault.rqst_queue
            dq = queue._q
            n0 = len(dq)
            budget = rate
            visited = 0
            kept = 0
            npop = 0
            nproc = 0
            parked = False
            banks = vault.banks
            # Per-row bookkeeping is batched: bank occupancy
            # (accesses/row_hits/open_row/busy_until) is
            # order-insensitive within the cycle — the first touch
            # already leaves ``busy_until == cycle``, so later
            # same-cycle touches pass the busy check either way — and
            # queue.pops / vault.processed / row frees are only
            # observable between phases.  All are applied once after
            # the walk.
            touches: dict = {}
            freed_append = freed.append
            while visited < n0:
                if budget <= 0:
                    # Response port exhausted; the rest wait in place.
                    if kept:
                        dq.rotate(kept)
                    break
                idx = dq[0]
                row = meta[idx]
                bank_idx = row[F_BANK]
                if cycle < banks[bank_idx].busy_until:
                    # Only reachable via restored bank state: the
                    # baseline occupancy below never leaves a bank
                    # busy past its own cycle.
                    banks[bank_idx].conflicts += 1
                    vault.bank_conflicts += 1
                    dq.rotate(-1)
                    kept += 1
                    visited += 1
                    continue
                # _occupy, baseline model: completes within the cycle.
                if bank_idx in touches:
                    touches[bank_idx] += 1
                else:
                    touches[bank_idx] = 1

                pkt = pkts[idx]
                cmd = row[F_CMD]
                src = row[F_SRC_LINK]
                has = has_rsp_of[cmd]
                if has is None:
                    # CMC plugin: flush the deferred batch so memory
                    # ordering holds, then execute at this exact plan
                    # position through process_rqst.
                    n = len(plan)
                    if pend < n:
                        self._execute(plan, pend, n, device, col)
                    rsp = self._run_cmc(device, pkt, row, cycle)
                    dq.popleft()
                    npop += 1
                    freed_append(idx)
                    if rsp is None:
                        nproc += 1
                        visited += 1
                        pend = len(plan)
                        continue
                    if planned[src] >= depth:
                        rsp_queues[src].stalls += 1
                        vault.response_stalls += 1
                        append([_D_READY_PARK, src, rsp, pkt, row, vault])
                        pend = len(plan)
                        parked = True
                        if kept:
                            dq.rotate(kept)
                        break
                    planned[src] += 1
                    budget -= 1
                    append([_D_READY, src, rsp, None, None, None])
                    pend = len(plan)
                    nproc += 1
                    visited += 1
                    continue
                if has:
                    if planned[src] >= depth:
                        # Response path full: park after execution, as
                        # the scalar post-execute push check would.
                        rsp_queues[src].stalls += 1
                        vault.response_stalls += 1
                        append([_D_EXEC_PARK, src, None, pkt, row, vault])
                        parked = True
                        dq.popleft()
                        npop += 1
                        freed_append(idx)
                        if kept:
                            dq.rotate(kept)
                        break
                    planned[src] += 1
                    budget -= 1
                    append([_D_EXEC, src, None, pkt, row, None])
                else:
                    append([_D_EXEC_POSTED, -1, None, pkt, row, None])
                dq.popleft()
                npop += 1
                nproc += 1
                freed_append(idx)
                visited += 1
            if npop:
                queue.pops += npop
            if nproc:
                vault.processed += nproc
            for bank_idx, k in touches.items():
                bank = banks[bank_idx]
                bank.accesses += k
                bank.row_hits += k
                bank.open_row = -1
                bank.busy_until = cycle
            if not parked and not dq and vault._pending_rsp is None:
                active.discard(index)
        n = len(plan)
        if pend < n:
            self._execute(plan, pend, n, device, col)
        if freed:
            # Deferred free_row: plan entries hold the row tuples and
            # packets themselves, so releasing the indices is pure
            # bookkeeping nothing in this phase reads back.
            phase = table.phase
            for i in freed:
                phase[i] = PHASE_FREE
                pkts[i] = None
                meta[i] = None
            table._free.extend(freed)
            table.active -= len(freed)
        # Dispatch: replay pushes and parks in plan order.
        dev = device.dev
        rsp_pushed = 0
        for e in plan:
            disp = e[0]
            if disp == _D_EXEC_POSTED:
                continue
            if disp <= _D_EXEC:  # _D_READY or _D_EXEC
                q = rsp_queues[e[1]]
                qq = q._q
                qq.append(e[2])
                q.pushes += 1
                n2 = len(qq)
                if n2 > q.high_water:
                    q.high_water = n2
                rsp_pushed += 1
            else:  # _D_EXEC_PARK or _D_READY_PARK
                pkt = e[3]
                row = e[4]
                e[5]._pending_rsp = (
                    Flight(
                        pkt=pkt,
                        src_link=e[1],
                        inject_cycle=row[F_INJECT],
                        vault=row[F_VAULT],
                        bank=row[F_BANK],
                        quad=row[F_QUAD],
                        hop_delay=0,
                        origin_dev=dev,
                        info=COMMAND_TABLE_LIST[pkt.cmd],
                        row=row[F_ROW],
                    ),
                    e[2],
                )
        xbar.rsp_occ += rsp_pushed

    def _run_cmc(self, device: "Device", pkt, row, cycle: int):
        scratch = self._scratch
        scratch.pkt = pkt
        scratch.src_link = row[F_SRC_LINK]
        scratch.inject_cycle = row[F_INJECT]
        scratch.vault = row[F_VAULT]
        scratch.bank = row[F_BANK]
        scratch.quad = row[F_QUAD]
        scratch.row = row[F_ROW]
        scratch.info = COMMAND_TABLE_LIST[pkt.cmd]
        return process_rqst(device, scratch, cycle)

    # -- deferred execution ----------------------------------------------------

    def _execute(
        self, plan: List[list], start: int, end: int, device: "Device",
        col: ColumnarMemory,
    ) -> None:
        """Execute deferred plan entries, columnar-ly where safe."""
        if end - start == 1:
            e = plan[start]
            if e[0] != _D_READY:
                e[2] = self._exec_one(e, device, col)
            return
        reads: List[list] = []
        writes: List[list] = []
        amos: List[list] = []
        modes: List[list] = []
        intervals: List[tuple] = []
        writer = False
        kind_of = _KIND
        for i in range(start, end):
            e = plan[i]
            if e[0] == _D_READY:
                # Pending-flush response: executed last cycle, the rsp
                # is already materialized and it touches no memory now.
                continue
            row = e[4]
            cmd = row[F_CMD]
            k = kind_of[cmd]
            if k == ARM_READ:
                reads.append(e)
                addr = row[F_ADDR]
                intervals.append((addr, addr + _RSP_BYTES[cmd]))
            elif k == ARM_WRITE:
                writes.append(e)
                writer = True
                addr = row[F_ADDR]
                intervals.append((addr, addr + (row[F_FLITS] - 1) * 16))
            elif k == ARM_ATOMIC:
                amos.append(e)
                writer = True
                addr = row[F_ADDR]
                intervals.append((addr, addr + _FOOT[cmd]))
            else:
                # Mode registers (and the unreachable flow arm) touch
                # no memory: always order-safe against the memory kinds.
                modes.append(e)
        if writer and len(intervals) > 1:
            intervals.sort()
            prev = intervals[0][1]
            for s0, e0 in intervals[1:]:
                if s0 < prev:
                    # Overlapping footprints with a writer present:
                    # execute the whole run in exact plan order.
                    for i in range(start, end):
                        e = plan[i]
                        if e[0] != _D_READY:
                            e[2] = self._exec_one(e, device, col)
                    return
                if e0 > prev:
                    prev = e0
        if reads:
            self._exec_reads(reads, device, col)
        if writes:
            self._exec_writes(writes, device, col)
        if amos:
            self._exec_amos(amos, device, col)
        for e in modes:
            e[2] = self._exec_one(e, device, col)

    def _exec_one(self, e: list, device: "Device", col: ColumnarMemory):
        """Execute one entry with process_rqst's exact dispatch/errors."""
        pkt = e[3]
        row = e[4]
        cmd = row[F_CMD]
        k = _KIND[cmd]
        addr = row[F_ADDR]
        data = b""
        errstat = 0
        try:
            if k == ARM_READ:
                data = col.read1(addr, _RSP_BYTES[cmd])
            elif k == ARM_WRITE:
                col.write1(addr, pkt.data)
            elif k == ARM_ATOMIC:
                result = execute_amo(device._mem, addr, cmd, pkt.data)
                data = result.rsp_data
                errstat = result.errstat
            elif k == ARM_MODE_RD:
                value = device.registers.read(addr)
                data = value.to_bytes(8, "little") + _ZERO8
            elif k == ARM_MODE_WR:
                device.registers.write(addr, int.from_bytes(pkt.data[:8], "little"))
            else:  # pragma: no cover - command table is exhaustive
                raise HMCSimError(f"unhandled command {cmd}")
        except HMCAddressError:
            return self._error(e, device, ERRSTAT_ADDRESS)
        except HMCSimError:
            return self._error(e, device, ERRSTAT_GENERIC)
        if e[0] == _D_EXEC_POSTED:
            return None
        return ResponsePacket(
            _RSP_CMD[cmd], pkt.tag, device.dev, e[1], data, 0, 0, 0,
            pkt.pb, errstat, 0, -1, row[F_INJECT], device.dev, e[1],
        )

    def _error(self, e: list, device: "Device", errstat: int):
        """The _error_response twin; posted errors are dropped."""
        if e[0] == _D_EXEC_POSTED:
            return None
        pkt = e[3]
        return ResponsePacket(
            _RSP_ERROR, pkt.tag, device.dev, e[1], b"", 0, 0, 0,
            0, errstat, 0, -1, e[4][F_INJECT], device.dev, e[1],
        )

    def _exec_reads(
        self, entries: List[list], device: "Device", col: ColumnarMemory
    ) -> None:
        cap = col.capacity
        pmask = col.page_mask
        psize = col.page_size
        pages = col._pages
        shift = col._shift
        base = col._base
        dev = device.dev
        rsp_bytes = _RSP_BYTES
        rsp_cmd = _RSP_CMD
        for e in entries:
            row = e[4]
            cmd = row[F_CMD]
            size = rsp_bytes[cmd]
            addr = row[F_ADDR]
            if addr + size > cap:
                e[2] = self._error(e, device, ERRSTAT_ADDRESS)
                continue
            a = addr + base
            off = a & pmask
            if off + size > psize:
                data = col.view.read(addr, size)
            else:
                page = pages.get(a >> shift)
                data = (
                    _zeros(size) if page is None else bytes(page[off : off + size])
                )
            pkt = e[3]
            e[2] = ResponsePacket(
                rsp_cmd[cmd], pkt.tag, dev, e[1], data,
                0, 0, 0, pkt.pb, 0, 0, -1, row[F_INJECT], dev, e[1],
            )

    def _exec_writes(
        self, entries: List[list], device: "Device", col: ColumnarMemory
    ) -> None:
        cap = col.capacity
        pmask = col.page_mask
        psize = col.page_size
        pages = col._pages
        shift = col._shift
        base = col._base
        dev = device.dev
        rsp_cmd = _RSP_CMD
        for e in entries:
            pkt = e[3]
            row = e[4]
            data = pkt.data
            nb = len(data)
            addr = row[F_ADDR]
            if addr + nb > cap:
                e[2] = self._error(e, device, ERRSTAT_ADDRESS)
                continue
            a = addr + base
            off = a & pmask
            if off + nb > psize:
                col.view.write(addr, data)
            else:
                page_no = a >> shift
                page = pages.get(page_no)
                if page is None:
                    page = bytearray(psize)
                    pages[page_no] = page
                page[off : off + nb] = data
            if e[0] != _D_EXEC_POSTED:
                e[2] = ResponsePacket(
                    rsp_cmd[row[F_CMD]], pkt.tag, dev, e[1], b"",
                    0, 0, 0, pkt.pb, 0, 0, -1, row[F_INJECT], dev, e[1],
                )

    def _exec_amos(
        self, entries: List[list], device: "Device", col: ColumnarMemory
    ) -> None:
        cap = col.capacity
        pmask = col.page_mask
        psize = col.page_size
        groups: Dict[int, List[list]] = {}
        for e in entries:
            row = e[4]
            cmd = row[F_CMD]
            addr = row[F_ADDR]
            foot = _FOOT[cmd]
            if (
                cmd in _AMO_COL
                and len(e[3].data) == _RQ_BYTES[cmd]
                and addr + foot <= cap
                and (addr & pmask) + foot <= psize
            ):
                groups.setdefault(cmd, []).append(e)
            else:
                # Conditional atomics (CAS/EQ), bad bounds, mis-sized
                # payloads, page crossers: the exact scalar path.
                e[2] = self._exec_one(e, device, col)
        for cmd, es in groups.items():
            if len(es) < _COL_MIN:
                for e in es:
                    e[2] = self._exec_one(e, device, col)
            else:
                self._amo_columnar(cmd, es, device, col)

    def _amo_columnar(
        self, cmd: int, es: List[list], device: "Device", col: ColumnarMemory
    ) -> None:
        """Batch kernel for the unconditional RMW atomics.

        Little-endian ``<u8`` limb arithmetic reproduces the signed
        big-int semantics of :mod:`repro.hmc.amo` bit-for-bit: wrapping
        unsigned adds equal signed adds mod 2**64, and the 128-bit add
        propagates the low-limb carry explicitly.
        """
        foot = _FOOT[cmd]
        n = len(es)
        addrs = [e[4][F_ADDR] for e in es]
        parts = col.gather(addrs, foot)
        ob = b"".join(parts)
        o = np.frombuffer(ob, dtype="<u8").reshape(n, foot // 8)
        if cmd in _AMO_INC:
            new = o + np.uint64(1)
        else:
            pl = np.frombuffer(
                b"".join(e[3].data for e in es), dtype=np.uint8
            ).reshape(n, 16).view("<u8")
            if cmd in _AMO_ADD2:
                new = o + pl
            elif cmd in _AMO_ADD16:
                lo = o[:, 0] + pl[:, 0]
                carry = (lo < o[:, 0]).astype(np.uint64)
                hi = o[:, 1] + pl[:, 1] + carry
                new = np.stack((lo, hi), axis=1)
            elif cmd in _AMO_BWR:
                d = pl[:, 0]
                m = pl[:, 1]
                new = ((o[:, 0] & ~m) | (d & m))[:, None]
            elif cmd in _AMO_SWAP:
                new = pl.copy()
            else:  # _AMO_BOOL
                if cmd == int(_R.XOR16):
                    new = o ^ pl
                elif cmd == int(_R.OR16):
                    new = o | pl
                elif cmd == int(_R.AND16):
                    new = o & pl
                elif cmd == int(_R.NOR16):
                    new = ~(o | pl)
                else:  # NAND16
                    new = ~(o & pl)
        col.scatter_mat(addrs, np.ascontiguousarray(new).view(np.uint8))
        dev = device.dev
        ret16 = cmd in _AMO_RET16
        ret8 = cmd in _AMO_RET8
        rsp_cmd = _RSP_CMD[cmd]
        for i, e in enumerate(es):
            if e[0] == _D_EXEC_POSTED:
                continue
            if ret16:
                data = parts[i]
            elif ret8:
                data = parts[i] + _ZERO8
            else:
                data = b""
            pkt = e[3]
            row = e[4]
            e[2] = ResponsePacket(
                rsp_cmd, pkt.tag, dev, e[1], data, 0, 0, 0,
                pkt.pb, 0, 0, -1, row[F_INJECT], dev, e[1],
            )
