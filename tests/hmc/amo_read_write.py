"""The Gen2 atomic unit as a read-then-write through the memory API.

A verbatim copy of ``repro.hmc.amo``'s handlers and ``execute_amo`` from
before they computed in place on the resident page: each handler reads
its operand with ``mem.read`` and stores it with ``mem.write``.  The
oracle runs the production handlers (``reference_amo``), so it cannot
see a handler bug; ``tests/hmc/test_amo.py`` checks the in-place unit
against this copy instead — memory image, resident pages, response and
errstat.  Do not edit it to follow the production code.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import HMCPacketError
from repro.hmc.commands import COMMAND_TABLE_LIST, hmc_rqst_t
from repro.hmc.memory import MemoryBackend

__all__ = ["AMOResult", "AMO_TABLE", "execute_amo", "is_amo", "ERRSTAT_EQ_FAIL"]

#: ERRSTAT value reported by EQ8/EQ16 when the comparison fails.
ERRSTAT_EQ_FAIL = 0x02

_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_ZERO8 = bytes(8)
_ZERO16 = bytes(16)

# Operand codecs, compiled once.  Wrapping adds are the same bits on
# unsigned lanes as on two's-complement ones, so only the comparisons
# decode signed.
_LANES = struct.Struct("<2Q")  # two 8-byte lanes (16-byte operands)
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_unpack_lanes, _pack_lanes = _LANES.unpack, _LANES.pack
_unpack_u64, _pack_u64 = _U64.unpack, _U64.pack
_i64_at = _I64.unpack_from


@dataclass(slots=True)  # not frozen: that constructor costs ~2.5x
class AMOResult:
    """Outcome of one atomic: response payload bytes and error status."""

    rsp_data: bytes = b""
    errstat: int = 0


#: The (never written) result every atomic without return data shares.
_NO_DATA = AMOResult()
_NOT_EQUAL = AMOResult(b"", ERRSTAT_EQ_FAIL)

Handler = Callable[[MemoryBackend, int, bytes], AMOResult]

# Each handler: (mem, addr, payload) -> AMOResult.  ``execute_amo`` has
# already checked the payload size, so the codecs cannot mis-size.


def _twoadd8(ret: bool) -> Handler:
    def handler(mem: MemoryBackend, addr: int, pl: bytes) -> AMOResult:
        orig = mem.read(addr, 16)
        a, b = _unpack_lanes(orig)
        c, d = _unpack_lanes(pl)
        mem.write(addr, _pack_lanes((a + c) & _M64, (b + d) & _M64))
        return AMOResult(orig) if ret else _NO_DATA

    return handler


def _add16(ret: bool) -> Handler:
    def handler(mem: MemoryBackend, addr: int, pl: bytes) -> AMOResult:
        orig = mem.read(addr, 16)
        lo, hi = _unpack_lanes(orig)
        plo, phi = _unpack_lanes(pl)
        lo += plo  # bit 64 is the carry into the high lane
        mem.write(addr, _pack_lanes(lo & _M64, (hi + phi + (lo >> 64)) & _M64))
        return AMOResult(orig) if ret else _NO_DATA

    return handler


def _inc8(mem: MemoryBackend, addr: int, _pl: bytes) -> AMOResult:
    (v,) = _unpack_u64(mem.read(addr, 8))
    mem.write(addr, _pack_u64((v + 1) & _M64))
    return _NO_DATA


def _bool16(op: Callable[[int, int], int]) -> Handler:
    def handler(mem: MemoryBackend, addr: int, pl: bytes) -> AMOResult:
        orig = mem.read(addr, 16)
        v = op(int.from_bytes(orig, "little"), int.from_bytes(pl, "little"))
        mem.write(addr, (v & _M128).to_bytes(16, "little"))
        return AMOResult(orig)

    return handler


def _bwr(ret: bool) -> Handler:
    def handler(mem: MemoryBackend, addr: int, pl: bytes) -> AMOResult:
        orig = mem.read(addr, 8)
        (o,) = _unpack_u64(orig)
        d, m = _unpack_lanes(pl)
        mem.write(addr, _pack_u64((o & ~m & _M64) | (d & m)))
        # 16-byte response payload with the original 8 bytes in the low half.
        return AMOResult(orig + _ZERO8) if ret else _NO_DATA

    return handler


def _cas8(cmp_fn: Callable[[int, int], bool]) -> Handler:
    def handler(mem: MemoryBackend, addr: int, pl: bytes) -> AMOResult:
        # Payload: compare (low 8 bytes) + swap (high 8 bytes).
        orig = mem.read(addr, 8)
        if cmp_fn(_i64_at(orig)[0], _i64_at(pl)[0]):
            mem.write(addr, pl[8:])
        return AMOResult(orig + _ZERO8)

    return handler


def _cas16(cmp_fn: Callable[[int, int], bool]) -> Handler:
    def handler(mem: MemoryBackend, addr: int, pl: bytes) -> AMOResult:
        orig = mem.read(addr, 16)
        if cmp_fn(
            int.from_bytes(orig, "little", signed=True),
            int.from_bytes(pl, "little", signed=True),
        ):
            mem.write(addr, pl)
        return AMOResult(orig)

    return handler


def _caszero16(mem: MemoryBackend, addr: int, pl: bytes) -> AMOResult:
    orig = mem.read(addr, 16)
    if orig == _ZERO16:
        mem.write(addr, pl)
    return AMOResult(orig)


def _eq(nbytes: int) -> Handler:
    def handler(mem: MemoryBackend, addr: int, pl: bytes) -> AMOResult:
        return _NO_DATA if mem.read(addr, nbytes) == pl[:nbytes] else _NOT_EQUAL

    return handler


def _swap16(mem: MemoryBackend, addr: int, pl: bytes) -> AMOResult:
    orig = mem.read(addr, 16)
    mem.write(addr, pl)
    return AMOResult(orig)


R = hmc_rqst_t
_HANDLERS: Dict[int, Handler] = {
    int(R.TWOADD8): _twoadd8(False),
    int(R.P_2ADD8): _twoadd8(False),
    int(R.TWOADDS8R): _twoadd8(True),
    int(R.ADD16): _add16(False),
    int(R.P_ADD16): _add16(False),
    int(R.ADDS16R): _add16(True),
    int(R.INC8): _inc8,
    int(R.P_INC8): _inc8,
    int(R.XOR16): _bool16(operator.xor),
    int(R.OR16): _bool16(operator.or_),
    int(R.NOR16): _bool16(lambda m, o: ~(m | o)),
    int(R.AND16): _bool16(operator.and_),
    int(R.NAND16): _bool16(lambda m, o: ~(m & o)),
    int(R.BWR): _bwr(False),
    int(R.P_BWR): _bwr(False),
    int(R.BWR8R): _bwr(True),
    int(R.CASEQ8): _cas8(lambda mv, cv: mv == cv),
    int(R.CASGT8): _cas8(lambda mv, cv: mv > cv),
    int(R.CASLT8): _cas8(lambda mv, cv: mv < cv),
    int(R.CASGT16): _cas16(lambda mv, cv: mv > cv),
    int(R.CASLT16): _cas16(lambda mv, cv: mv < cv),
    int(R.CASZERO16): _caszero16,
    int(R.EQ8): _eq(8),
    int(R.EQ16): _eq(16),
    int(R.SWAP16): _swap16,
}

#: The predecoded atomic unit, built once: command code -> ``(handler,
#: request payload bytes, response payload bytes, name)``.  The sizes are
#: Table I's (``CommandInfo.rqst_bytes`` / ``rsp_bytes``) and never
#: change, so ``execute_amo`` reads them here instead of re-deriving them
#: per request.
AMO_TABLE: Dict[int, Tuple[Handler, int, int, str]] = {
    code: (
        handler,
        COMMAND_TABLE_LIST[code].rqst_bytes,
        COMMAND_TABLE_LIST[code].rsp_bytes,
        COMMAND_TABLE_LIST[code].rqst_name,
    )
    for code, handler in _HANDLERS.items()
}


def is_amo(cmd: int) -> bool:
    """True if ``cmd`` is a Gen2 atomic (posted or returning)."""
    return cmd in AMO_TABLE


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
    spec = AMO_TABLE.get(cmd)
    if spec is None:
        raise HMCPacketError(f"command {cmd} is not a Gen2 atomic")
    handler, want, want_rsp, name = spec
    if len(payload) != want:
        raise HMCPacketError(
            f"{name}: atomic payload is {len(payload)} bytes, expected {want}"
        )
    result = handler(mem, addr, payload)
    if len(result.rsp_data) != want_rsp:
        raise HMCPacketError(
            f"{name}: atomic produced {len(result.rsp_data)} "
            f"response bytes, expected {want_rsp}"
        )
    return result
