"""Built-in Gen2 atomic memory operations (Table I of the paper).

Each atomic performs its read-modify-write against the backing store
*in-situ*, exactly as the HMC logic layer would: the host never sees
the intermediate value, and a single request packet carries the whole
operation.  This is the property that yields the bandwidth advantage
quantified in Table II (a cache-based increment costs a full read +
write of a cache line; ``INC8`` costs one request FLIT and one
response FLIT).

Data-semantics conventions (pinned by ``tests/hmc/test_amo.py``):

* All operands are little-endian.  8-byte arithmetic is signed 64-bit
  two's complement; 16-byte arithmetic is signed 128-bit.
* ``TWOADD8`` adds the payload's low 8 bytes to ``mem[addr]`` and its
  high 8 bytes to ``mem[addr+8]``.
* The "and return" variants (``TWOADDS8R``, ``ADDS16R``, ``BWR8R``,
  the boolean ops, the CAS family, ``SWAP16``) return the **original**
  memory operand (fetch-op semantics).
* 8-byte CAS payloads are ``compare`` (low 8 bytes) + ``swap`` (high
  8 bytes).  The 16-byte CAS variants carry only a 16-byte operand, so
  the operand doubles as both comparand and swap value (``CASZERO16``
  compares against zero); this interpretation is documented here
  because the public 2.1 spec text is not available offline.
* ``EQ8``/``EQ16`` return no data (1-FLIT response); the comparison
  outcome is reported in the response ``ERRSTAT`` field — ``0`` for
  equal, :data:`ERRSTAT_EQ_FAIL` for not-equal.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import HMCPacketError
from repro.hmc.commands import COMMAND_TABLE_LIST, hmc_rqst_t
from repro.hmc.memory import MemoryBackend

__all__ = [
    "AMOResult", "AMO_TABLE", "ERRSTAT_EQ_FAIL",
    "amo_refusal", "execute_amo", "is_amo", "run_amo",
]

#: ERRSTAT value reported by EQ8/EQ16 when the comparison fails.
ERRSTAT_EQ_FAIL = 0x02

_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_ZERO16 = bytes(16)

# Operand codecs, compiled once.  Wrapping adds are the same bits on
# unsigned lanes as on two's-complement ones, so only the comparisons
# decode signed.
_LANES = struct.Struct("<2Q")  # two 8-byte lanes (16-byte operands)
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_unpack_lanes, _pack_lanes = _LANES.unpack, _LANES.pack
_lanes_at, _put_lanes = _LANES.unpack_from, _LANES.pack_into
_u64_at, _put_u64 = _U64.unpack_from, _U64.pack_into
_i64_at = _I64.unpack_from
_take16 = struct.Struct("16s").unpack_from  # the 16-byte operand, copied out


@dataclass(slots=True)  # not frozen: that constructor costs ~2.5x
class AMOResult:
    """Outcome of one atomic: response payload bytes and error status."""

    rsp_data: bytes = b""
    errstat: int = 0


#: A handler's ``(response payload, errstat, stored the operand)``.
Outcome = Tuple[bytes, int, bool]
_WROTE: Outcome = (b"", 0, True)
_EQUAL: Outcome = (b"", 0, False)
_NOT_EQUAL: Outcome = (b"", ERRSTAT_EQ_FAIL, False)

Handler = Callable[[bytearray, int, bytes], Outcome]

# Each handler: (buf, off, payload) -> Outcome, on the operand at
# ``buf[off:]`` in place; the payload size is already checked.


def _twoadd8(ret: bool) -> Handler:
    def handler(buf: bytearray, off: int, pl: bytes) -> Outcome:
        a, b = _lanes_at(buf, off)
        c, d = _unpack_lanes(pl)
        out = (_pack_lanes(a, b), 0, True) if ret else _WROTE
        _put_lanes(buf, off, (a + c) & _M64, (b + d) & _M64)
        return out

    return handler


def _add16(ret: bool) -> Handler:
    def handler(buf: bytearray, off: int, pl: bytes) -> Outcome:
        lo, hi = _lanes_at(buf, off)
        plo, phi = _unpack_lanes(pl)
        out = (_pack_lanes(lo, hi), 0, True) if ret else _WROTE
        lo += plo  # bit 64 is the carry into the high lane
        _put_lanes(buf, off, lo & _M64, (hi + phi + (lo >> 64)) & _M64)
        return out

    return handler


def _inc8(buf: bytearray, off: int, _pl: bytes) -> Outcome:
    (v,) = _u64_at(buf, off)
    _put_u64(buf, off, (v + 1) & _M64)
    return _WROTE


def _bool16(op: Callable[[int, int], int]) -> Handler:
    def handler(buf: bytearray, off: int, pl: bytes) -> Outcome:
        (orig,) = _take16(buf, off)
        v = op(int.from_bytes(orig, "little"), int.from_bytes(pl, "little"))
        buf[off : off + 16] = (v & _M128).to_bytes(16, "little")
        return orig, 0, True

    return handler


def _bwr(ret: bool) -> Handler:
    def handler(buf: bytearray, off: int, pl: bytes) -> Outcome:
        (o,) = _u64_at(buf, off)
        d, m = _unpack_lanes(pl)
        # 16-byte response payload with the original 8 bytes in the low half.
        out = (_pack_lanes(o, 0), 0, True) if ret else _WROTE
        _put_u64(buf, off, (o & ~m & _M64) | (d & m))
        return out

    return handler


def _cas8(cmp_fn: Callable[[int, int], bool]) -> Handler:
    def handler(buf: bytearray, off: int, pl: bytes) -> Outcome:
        # Payload: compare (low 8 bytes) + swap (high 8 bytes).
        (mv,) = _i64_at(buf, off)
        out = (_pack_lanes(mv & _M64, 0), 0, cmp_fn(mv, _i64_at(pl)[0]))
        if out[2]:
            buf[off : off + 8] = pl[8:]
        return out

    return handler


def _cas16(cmp_fn: Callable[[int, int], bool]) -> Handler:
    def handler(buf: bytearray, off: int, pl: bytes) -> Outcome:
        (orig,) = _take16(buf, off)
        hit = cmp_fn(
            int.from_bytes(orig, "little", signed=True),
            int.from_bytes(pl, "little", signed=True),
        )
        if hit:
            buf[off : off + 16] = pl
        return orig, 0, hit

    return handler


def _caszero16(buf: bytearray, off: int, pl: bytes) -> Outcome:
    (orig,) = _take16(buf, off)
    hit = orig == _ZERO16
    if hit:
        buf[off : off + 16] = pl
    return orig, 0, hit


def _eq(nbytes: int) -> Handler:
    def handler(buf: bytearray, off: int, pl: bytes) -> Outcome:
        return _EQUAL if buf[off : off + nbytes] == pl[:nbytes] else _NOT_EQUAL

    return handler


def _swap16(buf: bytearray, off: int, pl: bytes) -> Outcome:
    (orig,) = _take16(buf, off)
    buf[off : off + 16] = pl
    return orig, 0, True


R = hmc_rqst_t
#: code -> (handler, operand bytes, stores always: not the CASes or EQs).
_HANDLERS: Dict[int, Tuple[Handler, int, bool]] = {
    int(R.TWOADD8): (_twoadd8(False), 16, True),
    int(R.P_2ADD8): (_twoadd8(False), 16, True),
    int(R.TWOADDS8R): (_twoadd8(True), 16, True),
    int(R.ADD16): (_add16(False), 16, True),
    int(R.P_ADD16): (_add16(False), 16, True),
    int(R.ADDS16R): (_add16(True), 16, True),
    int(R.INC8): (_inc8, 8, True),
    int(R.P_INC8): (_inc8, 8, True),
    int(R.XOR16): (_bool16(operator.xor), 16, True),
    int(R.OR16): (_bool16(operator.or_), 16, True),
    int(R.NOR16): (_bool16(lambda m, o: ~(m | o)), 16, True),
    int(R.AND16): (_bool16(operator.and_), 16, True),
    int(R.NAND16): (_bool16(lambda m, o: ~(m & o)), 16, True),
    int(R.BWR): (_bwr(False), 8, True),
    int(R.P_BWR): (_bwr(False), 8, True),
    int(R.BWR8R): (_bwr(True), 8, True),
    int(R.CASEQ8): (_cas8(operator.eq), 8, False),
    int(R.CASGT8): (_cas8(operator.gt), 8, False),
    int(R.CASLT8): (_cas8(operator.lt), 8, False),
    int(R.CASGT16): (_cas16(operator.gt), 16, False),
    int(R.CASLT16): (_cas16(operator.lt), 16, False),
    int(R.CASZERO16): (_caszero16, 16, False),
    int(R.EQ8): (_eq(8), 8, False),
    int(R.EQ16): (_eq(16), 16, False),
    int(R.SWAP16): (_swap16, 16, True),
}

#: The predecoded atomic unit: command code -> ``(handler, request and
#: response payload bytes, name, operand width, always stores)``.  The
#: sizes are Table I's (``CommandInfo.rqst_bytes`` / ``rsp_bytes``), read
#: here instead of re-derived per request.
AMORow = Tuple[Handler, int, int, str, int, bool]
AMO_TABLE: Dict[int, AMORow] = {
    code: (handler, info.rqst_bytes, info.rsp_bytes, info.rqst_name, width, always)
    for code, (handler, width, always) in _HANDLERS.items()
    for info in (COMMAND_TABLE_LIST[code],)
}


def is_amo(cmd: int) -> bool:
    """True if ``cmd`` is a Gen2 atomic (posted or returning)."""
    return cmd in AMO_TABLE


def amo_refusal(cmd: int, pl: bytes, rsp: Optional[bytes] = None) -> HMCPacketError:
    """The error of the atomic-unit check ``cmd`` failed (callers test
    inline): unknown command, payload size, or response size."""
    if cmd not in AMO_TABLE:
        return HMCPacketError(f"command {cmd} is not a Gen2 atomic")
    _, want, want_rsp, name, _, _ = AMO_TABLE[cmd]
    if rsp is None:
        return HMCPacketError(
            f"{name}: atomic payload is {len(pl)} bytes, expected {want}"
        )
    return HMCPacketError(
        f"{name}: atomic produced {len(rsp)} response bytes, expected {want_rsp}"
    )


def run_amo(mem: MemoryBackend, addr: int, row: AMORow, pl: bytes) -> Outcome:
    """Run ``row``'s atomic at ``addr`` in place on its resident page (a
    cold one is materialized first if the atomic always stores, as its
    write would).  A target that straddles a page, lies out of range or
    is cold under an atomic that may not store runs on a ``mem.read``
    copy, stored back with ``mem.write`` only if the handler wrote."""
    handler, _, _, _, width, always_writes = row
    a = addr + mem._base
    off = a & mem._pmask
    if 0 <= addr <= mem.capacity - width and off + width <= mem._psize:
        page = mem._pages.get(a >> mem._shift)
        if page is None and always_writes:
            page = mem._pages[a >> mem._shift] = bytearray(mem._psize)
        if page is not None:
            return handler(page, off, pl)
    buf = bytearray(mem.read(addr, width))
    out = handler(buf, 0, pl)
    if out[2]:
        mem.write(addr, buf)
    return out


def execute_amo(
    mem: MemoryBackend, addr: int, cmd: int, payload: bytes
) -> AMOResult:
    """Execute one atomic in-situ.

    Args:
        mem: the device backing store.
        addr: target base address from the request header.
        cmd: the 7-bit request command code (must satisfy :func:`is_amo`).
        payload: the request data payload; its length must match the
            command's registered request size (0 or 16 bytes).

    Returns:
        The response payload (sized per Table I) and error status.

    Raises:
        HMCPacketError: for unknown commands or mis-sized payloads.
    """
    row = AMO_TABLE.get(cmd)
    if row is None or len(payload) != row[1]:
        raise amo_refusal(cmd, payload)
    rsp_data, errstat, _ = run_amo(mem, addr, row, payload)
    if len(rsp_data) != row[2]:
        raise amo_refusal(cmd, payload, rsp_data)
    return AMOResult(rsp_data, errstat)


def reference_amo(cmd: int, mem_before: bytes, payload: bytes) -> Tuple[bytes, bytes, int]:
    """Pure-functional reference model used by property tests.

    Args:
        cmd: atomic command code.
        mem_before: 16 bytes of memory at the target address.
        payload: request payload (may be empty for INC8).

    Returns:
        ``(mem_after, rsp_data, errstat)``.
    """
    mem = MemoryBackend(16)
    mem.write(0, mem_before)
    result = execute_amo(mem, 0, cmd, payload)
    return mem.read(0, 16), result.rsp_data, result.errstat
