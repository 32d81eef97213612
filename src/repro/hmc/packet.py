"""HMC 2.0/2.1 packet formats: request/response head & tail encode/decode.

A packet is a sequence of FLITs (128 bits each), represented in the
simulator — exactly as in HMC-Sim — as a flat list of 64-bit words:
``[head, data0, data1, ..., tail]``.  A packet of *L* FLITs is ``2*L``
words; the head is the low 64 bits of the first FLIT and the tail the
high 64 bits of the last FLIT, leaving ``(L-1) * 16`` bytes of data
payload in between.

The field layout (HMC-Sim 2.0 conventions for the 2.0/2.1
specification) is stated once, as one ``(field, lo, width)`` table per
wire word: :data:`RQST_HEAD`, :data:`RQST_TAIL`, :data:`RSP_HEAD` and
:data:`RSP_TAIL`.  Two fields are derived rather than stored: LNG
(:data:`LNG_BITS`, head ``[11:7]``, the packet length in FLITs) and CRC
(:data:`CRC_BITS`, tail ``[63:32]``, Koopman CRC-32 over the packet).
Bits no table names are reserved and encode as zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from repro.errors import HMCPacketError
from repro.hmc import crc as _crc
from repro.hmc.commands import (
    ARM_CMC,
    COMMAND_TABLE_LIST,
    FLIT_BYTES,
    MAX_PACKET_FLITS,
    MAX_TAG,
    hmc_response_t,
    hmc_rqst_t,
)

__all__ = [
    "RequestPacket",
    "ResponsePacket",
    "RQST_HEAD",
    "RQST_TAIL",
    "RSP_HEAD",
    "RSP_TAIL",
    "LNG_BITS",
    "CRC_BITS",
    "pack_data",
    "unpack_data",
    "field_get",
    "field_set",
    "MAX_TAG",
    "MAX_CUB",
    "ADDR_MASK",
]

_U64 = (1 << 64) - 1

#: Largest encodable cube id (3-bit CUB field).
MAX_CUB = (1 << 3) - 1
#: Mask for the 34-bit ADRS field.
ADDR_MASK = (1 << 34) - 1

Layout = Tuple[Tuple[str, int, int], ...]
#: (head, data words, CRC-stamped tail): a packet's wire form.
Wire = Tuple[int, Tuple[int, ...], int]

# Each table lists its packet class's fields in declaration order, which
# is also the positional order of the memoized builders below: head
# fields, then ``data``, then tail fields.

#: Request head word.
RQST_HEAD: Layout = (
    ("cmd", 0, 7),  # request command
    ("tag", 12, 11),  # host-assigned tag echoed in the response
    ("addr", 24, 34),  # target byte address
    ("cub", 61, 3),  # target cube id (device routing)
)
#: Request tail word.
RQST_TAIL: Layout = (
    ("rrp", 0, 9),  # return retry pointer
    ("frp", 9, 9),  # forward retry pointer
    ("seq", 18, 3),  # sequence number
    ("pb", 21, 1),  # poison bit
    ("slid", 22, 3),  # source link id
    ("rtc", 29, 3),  # return token count
)
#: Response head word.
RSP_HEAD: Layout = (
    ("cmd", 0, 7),  # response command
    ("tag", 12, 11),  # echoed request tag
    ("cub", 61, 3),  # originating cube id
    ("slid", 23, 3),  # source link id (host-side routing)
)
#: Response tail word.
RSP_TAIL: Layout = (
    ("rrp", 0, 9),
    ("frp", 9, 9),
    ("seq", 18, 3),
    ("dinv", 21, 1),  # data-invalid (CRC failure) flag
    ("errstat", 22, 7),  # error status
    ("rtc", 29, 3),
)
#: ``(lo, width)`` of the derived fields: LNG in the head, CRC in the tail.
LNG_BITS = (7, 5)
CRC_BITS = (32, 32)


def field_get(word: int, lo: int, width: int) -> int:
    """Extract ``width`` bits starting at bit ``lo`` from a 64-bit word."""
    return (word >> lo) & ((1 << width) - 1)


def field_set(word: int, lo: int, width: int, value: int) -> int:
    """Return ``word`` with ``width`` bits at ``lo`` replaced by ``value``.

    Raises:
        HMCPacketError: if ``value`` does not fit in ``width`` bits.
    """
    if value < 0 or value >= (1 << width):
        raise HMCPacketError(
            f"value {value:#x} does not fit in a {width}-bit packet field"
        )
    mask = ((1 << width) - 1) << lo
    return (word & ~mask & _U64) | (value << lo)


def pack_data(data: bytes) -> List[int]:
    """Pack a byte payload into little-endian 64-bit data words.

    Raises:
        HMCPacketError: if the payload length is not a multiple of 8.
    """
    if len(data) % 8 != 0:
        raise HMCPacketError(f"payload length {len(data)} is not 64-bit aligned")
    return [
        int.from_bytes(data[i : i + 8], "little") for i in range(0, len(data), 8)
    ]


def unpack_data(words: Sequence[int]) -> bytes:
    """Inverse of :func:`pack_data`."""
    return b"".join((w & _U64).to_bytes(8, "little") for w in words)


def _pack(layout: Layout, values: Sequence[int]) -> int:
    word = 0
    for (_name, lo, width), value in zip(layout, values):
        word = field_set(word, lo, width, value)
    return word


def _encode(
    head_layout: Layout, head_values: Sequence[int], data: bytes,
    tail_layout: Layout, tail_values: Sequence[int],
) -> Wire:
    """(head, data words, CRC-stamped tail) of one packet."""
    lng = 1 + len(data) // FLIT_BYTES
    head = field_set(_pack(head_layout, head_values), *LNG_BITS, lng)
    tail = _pack(tail_layout, tail_values)
    words = pack_data(data)
    crc = _crc.packet_crc([head] + words + [tail])
    return head, tuple(words), field_set(tail, *CRC_BITS, crc)


# Memoized wire-form builders.  A packet's wire form is a pure function of
# its wire fields, so it is encoded, CRC included, once per distinct field
# combination: a mutated packet selects another cache line, and CMC head/tail
# materialization is a hit.  Out-of-range fields raise HMCPacketError from
# field_set (lru_cache never caches an exception).


@lru_cache(maxsize=4096)
def _rqst_wire(
    cmd: int, tag: int, addr: int, cub: int, data: bytes,
    rrp: int, frp: int, seq: int, pb: int, slid: int, rtc: int,
) -> Wire:
    return _encode(RQST_HEAD, (cmd, tag, addr & ADDR_MASK, cub), data,
                   RQST_TAIL, (rrp, frp, seq, pb, slid, rtc))


@lru_cache(maxsize=4096)
def _rsp_wire(
    cmd: int, tag: int, cub: int, slid: int, data: bytes,
    rrp: int, frp: int, seq: int, dinv: int, errstat: int, rtc: int,
) -> Wire:
    return _encode(RSP_HEAD, (cmd, tag, cub, slid), data,
                   RSP_TAIL, (rrp, frp, seq, dinv, errstat, rtc))


def _wire_key(head: Layout, tail: Layout) -> attrgetter:
    """A packet's wire fields in the builders' positional order."""
    return attrgetter(*(n for n, _, _ in head), "data", *(n for n, _, _ in tail))


class _Packet:
    """Wire form shared by both packet classes, read from their tables."""

    __slots__ = ()

    def _wire(self) -> Wire:
        """(head, data words, tail) from the memoized wire builder."""
        return self._BUILD(*self._KEY(self))

    @property
    def lng(self) -> int:
        """Packet length in FLITs."""
        return 1 + len(self.data) // FLIT_BYTES

    def head(self) -> int:
        """Encode the 64-bit head word."""
        return self._wire()[0]

    def tail(self) -> int:
        """Encode the 64-bit tail word, CRC included."""
        return self._wire()[2]

    def encode(self) -> List[int]:
        """Encode the full packet as ``2*lng`` 64-bit words."""
        head, data_words, tail = self._wire()
        return [head, *data_words, tail]

    @classmethod
    def decode(cls, words: Sequence[int], *, check_crc: bool = False):
        """Decode a packet from its 64-bit word representation.

        Raises:
            HMCPacketError: if the word count disagrees with the LNG
                field, or (with ``check_crc``) the CRC does not match.
        """
        if len(words) < 2:
            raise HMCPacketError("a packet is at least two words (head + tail)")
        head, tail = words[0], words[-1]
        lng = field_get(head, *LNG_BITS)
        if len(words) != 2 * lng:
            raise HMCPacketError(
                f"LNG field says {lng} FLITs ({2 * lng} words) "
                f"but buffer holds {len(words)} words"
            )
        if check_crc and (want := _crc.packet_crc(words)) != (got := field_get(tail, *CRC_BITS)):
            raise HMCPacketError(
                f"{cls._KIND} CRC mismatch: packet carries {got:#010x}, computed {want:#010x}"
            )
        return cls(
            data=unpack_data(words[1:-1]),
            **{name: field_get(head, lo, w) for name, lo, w in cls._HEAD},
            **{name: field_get(tail, lo, w) for name, lo, w in cls._TAIL},
        )


@dataclass(slots=True)
class RequestPacket(_Packet):
    """A decoded HMC request packet.

    ``data`` is the raw payload (``(lng-1)*16`` bytes).  Tail link-layer
    fields default to zero; the simulator populates ``slid`` on send so
    responses can be routed back to the originating link.
    """

    _HEAD, _TAIL, _KIND = RQST_HEAD, RQST_TAIL, "request"
    _KEY = _wire_key(RQST_HEAD, RQST_TAIL)
    _BUILD = staticmethod(_rqst_wire)

    cmd: int
    tag: int
    addr: int
    cub: int = 0
    data: bytes = b""
    rrp: int = 0
    frp: int = 0
    seq: int = 0
    pb: int = 0
    slid: int = 0
    rtc: int = 0

    @classmethod
    def build(
        cls,
        rqst: hmc_rqst_t,
        addr: int,
        tag: int,
        *,
        cub: int = 0,
        data: bytes = b"",
        rqst_flits: Optional[int] = None,
    ) -> "RequestPacket":
        """Build a request for a known command, validating payload size.

        For specification-defined commands the packet length comes from
        the command table and ``data`` must match it exactly.  For CMC
        commands the caller (normally the CMC registry) supplies
        ``rqst_flits``; the payload is zero-padded up to the registered
        length.

        Raises:
            HMCPacketError: on size/field violations.
        """
        info = COMMAND_TABLE_LIST[rqst]
        if info.arm == ARM_CMC:
            if rqst_flits is None:
                raise HMCPacketError(
                    f"{info.rqst_name}: CMC requests need an explicit rqst_flits "
                    "(use HMCSim.build_memrequest after loading the CMC op)"
                )
            if not 1 <= rqst_flits <= MAX_PACKET_FLITS:
                raise HMCPacketError(
                    f"request length {rqst_flits} FLITs out of range 1..17"
                )
            want = (rqst_flits - 1) * FLIT_BYTES
            if len(data) < want:
                data = data + bytes(want - len(data))
        else:
            # Table I's length; a specification command ignores rqst_flits.
            want = info.rqst_bytes
        if len(data) != want:
            raise HMCPacketError(
                f"{info.rqst_name}: payload is {len(data)} bytes, "
                f"a {1 + want // FLIT_BYTES}-FLIT request carries exactly {want}"
            )
        if not 0 <= tag <= MAX_TAG:
            raise HMCPacketError(f"tag {tag} outside 11-bit tag space")
        if not 0 <= cub <= MAX_CUB:
            raise HMCPacketError(f"cub {cub} outside 3-bit cube space")
        if addr < 0 or addr > ADDR_MASK:
            raise HMCPacketError(f"address {addr:#x} outside 34-bit ADRS space")
        return cls(int(rqst), tag, addr, cub, data)

    @property
    def rqst(self) -> hmc_rqst_t:
        """The request enum member for this packet's command code."""
        return hmc_rqst_t(self.cmd)


@dataclass(slots=True)
class ResponsePacket(_Packet):
    """A decoded HMC response packet."""

    _HEAD, _TAIL, _KIND = RSP_HEAD, RSP_TAIL, "response"
    _KEY = _wire_key(RSP_HEAD, RSP_TAIL)
    _BUILD = staticmethod(_rsp_wire)

    cmd: int
    tag: int
    cub: int = 0
    slid: int = 0
    data: bytes = b""
    rrp: int = 0
    frp: int = 0
    seq: int = 0
    dinv: int = 0
    errstat: int = 0
    rtc: int = 0
    #: Cycle at which the device retired the response (simulator metadata,
    #: not part of the wire format; -1 until retired).
    retire_cycle: int = field(default=-1, compare=False)
    #: Cycle at which the originating request was injected (simulator
    #: metadata used for latency tracing; -1 when unknown).
    inject_cycle: int = field(default=-1, compare=False)
    #: Device/link the originating request entered on (simulator metadata
    #: used to route responses back through chained topologies).
    origin_dev: int = field(default=-1, compare=False)
    origin_link: int = field(default=-1, compare=False)

    @property
    def response(self) -> Optional[hmc_response_t]:
        """The response enum member, or None for custom CMC codes."""
        try:
            return hmc_response_t(self.cmd)
        except ValueError:
            return None
