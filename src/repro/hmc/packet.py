"""HMC 2.0/2.1 packet formats: request/response head & tail encode/decode.

A packet is a sequence of FLITs (128 bits each), represented in the
simulator — exactly as in HMC-Sim — as a flat list of 64-bit words:
``[head, data0, data1, ..., tail]``.  A packet of *L* FLITs is ``2*L``
words; the head is the low 64 bits of the first FLIT and the tail the
high 64 bits of the last FLIT, leaving ``(L-1) * 16`` bytes of data
payload in between.

Field layout (HMC-Sim 2.0 conventions for the 2.0/2.1 specification):

Request head::

    [6:0]   CMD   request command
    [11:7]  LNG   packet length in FLITs (includes head+tail)
    [22:12] TAG   host-assigned tag echoed in the response
    [57:24] ADRS  34-bit target byte address
    [60:58] RES   reserved
    [63:61] CUB   target cube id (device routing)

Request tail::

    [8:0]   RRP   return retry pointer
    [17:9]  FRP   forward retry pointer
    [20:18] SEQ   sequence number
    [21]    Pb    poison bit
    [24:22] SLID  source link id
    [28:25] RES   reserved
    [31:29] RTC   return token count
    [63:32] CRC   Koopman CRC-32 over the packet

Response head::

    [6:0]   CMD   response command
    [11:7]  LNG   packet length in FLITs
    [22:12] TAG   echoed request tag
    [25:23] SLID  source link id (for host-side routing)
    [60:26] RES   reserved
    [63:61] CUB   originating cube id

Response tail::

    [8:0]   RRP
    [17:9]  FRP
    [20:18] SEQ
    [21]    DINV  data-invalid (CRC failure) flag
    [28:22] ERRSTAT  7-bit error status
    [31:29] RTC
    [63:32] CRC
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

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
    "pack_data",
    "unpack_data",
    "field_get",
    "field_set",
    "MAX_TAG",
    "MAX_CUB",
    "ADDR_MASK",
    "packet_state",
    "packet_from_state",
]

_U64 = (1 << 64) - 1

#: Largest encodable cube id (3-bit CUB field).
MAX_CUB = (1 << 3) - 1
#: Mask for the 34-bit ADRS field.
ADDR_MASK = (1 << 34) - 1


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


# ---------------------------------------------------------------------------
# Memoized wire-form builders.
#
# A packet's wire form (head word, data words, CRC-carrying tail word) is a
# pure function of its wire fields, so it is computed once per distinct
# field combination and shared.  The builders are keyed on *every* wire
# field — mutating a packet simply selects a different cache line — and the
# Koopman CRC-32 is computed exactly once per combination, which is what
# turns ``check_crc`` verification and CMC head/tail materialization from a
# per-packet cost into a cache hit.  field_set is retained so out-of-range
# field values raise the same HMCPacketError as the unmemoized encoders
# (exceptions are never cached by lru_cache).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _rqst_wire(
    cmd: int,
    tag: int,
    addr: int,
    cub: int,
    data: bytes,
    rrp: int,
    frp: int,
    seq: int,
    pb: int,
    slid: int,
    rtc: int,
) -> Tuple[int, Tuple[int, ...], int]:
    lng = 1 + len(data) // FLIT_BYTES
    head = 0
    head = field_set(head, 0, 7, cmd)
    head = field_set(head, 7, 5, lng)
    head = field_set(head, 12, 11, tag)
    head = field_set(head, 24, 34, addr & ADDR_MASK)
    head = field_set(head, 61, 3, cub)
    tail = 0
    tail = field_set(tail, 0, 9, rrp)
    tail = field_set(tail, 9, 9, frp)
    tail = field_set(tail, 18, 3, seq)
    tail = field_set(tail, 21, 1, pb)
    tail = field_set(tail, 22, 3, slid)
    tail = field_set(tail, 29, 3, rtc)
    words = pack_data(data)
    crc = _crc.packet_crc([head] + words + [tail])
    return head, tuple(words), field_set(tail, 32, 32, crc)


@lru_cache(maxsize=4096)
def _rsp_wire(
    cmd: int,
    tag: int,
    cub: int,
    slid: int,
    data: bytes,
    rrp: int,
    frp: int,
    seq: int,
    dinv: int,
    errstat: int,
    rtc: int,
) -> Tuple[int, Tuple[int, ...], int]:
    lng = 1 + len(data) // FLIT_BYTES
    head = 0
    head = field_set(head, 0, 7, cmd)
    head = field_set(head, 7, 5, lng)
    head = field_set(head, 12, 11, tag)
    head = field_set(head, 23, 3, slid)
    head = field_set(head, 61, 3, cub)
    tail = 0
    tail = field_set(tail, 0, 9, rrp)
    tail = field_set(tail, 9, 9, frp)
    tail = field_set(tail, 18, 3, seq)
    tail = field_set(tail, 21, 1, dinv)
    tail = field_set(tail, 22, 7, errstat)
    tail = field_set(tail, 29, 3, rtc)
    words = pack_data(data)
    crc = _crc.packet_crc([head] + words + [tail])
    return head, tuple(words), field_set(tail, 32, 32, crc)


@dataclass(slots=True)
class RequestPacket:
    """A decoded HMC request packet.

    ``data`` is the raw payload (``(lng-1)*16`` bytes).  Tail link-layer
    fields default to zero; the simulator populates ``slid`` on send so
    responses can be routed back to the originating link.
    """

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

    # -- wire form ---------------------------------------------------------

    @property
    def lng(self) -> int:
        """Packet length in FLITs."""
        return 1 + len(self.data) // FLIT_BYTES

    @property
    def rqst(self) -> hmc_rqst_t:
        """The request enum member for this packet's command code."""
        return hmc_rqst_t(self.cmd)

    def _wire(self) -> Tuple[int, Tuple[int, ...], int]:
        """(head, data words, tail) from the memoized wire builder."""
        return _rqst_wire(
            self.cmd,
            self.tag,
            self.addr,
            self.cub,
            self.data,
            self.rrp,
            self.frp,
            self.seq,
            self.pb,
            self.slid,
            self.rtc,
        )

    def head(self) -> int:
        """Encode the 64-bit request header."""
        return self._wire()[0]

    def tail(self, crc: Optional[int] = None) -> int:
        """Encode the 64-bit request tail (CRC computed unless given)."""
        if crc is not None:
            w = 0
            w = field_set(w, 0, 9, self.rrp)
            w = field_set(w, 9, 9, self.frp)
            w = field_set(w, 18, 3, self.seq)
            w = field_set(w, 21, 1, self.pb)
            w = field_set(w, 22, 3, self.slid)
            w = field_set(w, 29, 3, self.rtc)
            return field_set(w, 32, 32, crc)
        return self._wire()[2]

    def encode(self) -> List[int]:
        """Encode the full packet as ``2*lng`` 64-bit words."""
        head, data_words, tail = self._wire()
        return [head, *data_words, tail]

    def verify_crc(self) -> None:
        """Recompute the packet CRC and check it against the tail.

        Equivalent to ``RequestPacket.decode(pkt.encode(),
        check_crc=True)`` but verifies the already-encoded words
        directly instead of paying a full encode→decode round trip.

        Raises:
            HMCPacketError: on CRC mismatch.
        """
        head, data_words, tail = self._wire()
        want = _crc.packet_crc([head, *data_words, tail])
        got = field_get(tail, 32, 32)
        if want != got:
            raise HMCPacketError(
                f"request CRC mismatch: packet carries {got:#010x}, "
                f"computed {want:#010x}"
            )

    @classmethod
    def decode(cls, words: Sequence[int], *, check_crc: bool = False) -> "RequestPacket":
        """Decode a request packet from its 64-bit word representation.

        Raises:
            HMCPacketError: if the word count disagrees with the LNG
                field, or (with ``check_crc``) the CRC does not match.
        """
        if len(words) < 2:
            raise HMCPacketError("a packet is at least two words (head + tail)")
        head, tail = words[0], words[-1]
        lng = field_get(head, 7, 5)
        if len(words) != 2 * lng:
            raise HMCPacketError(
                f"LNG field says {lng} FLITs ({2 * lng} words) "
                f"but buffer holds {len(words)} words"
            )
        pkt = cls(
            cmd=field_get(head, 0, 7),
            tag=field_get(head, 12, 11),
            addr=field_get(head, 24, 34),
            cub=field_get(head, 61, 3),
            data=unpack_data(words[1:-1]),
            rrp=field_get(tail, 0, 9),
            frp=field_get(tail, 9, 9),
            seq=field_get(tail, 18, 3),
            pb=field_get(tail, 21, 1),
            slid=field_get(tail, 22, 3),
            rtc=field_get(tail, 29, 3),
        )
        if check_crc:
            want = _crc.packet_crc(list(words))
            got = field_get(tail, 32, 32)
            if want != got:
                raise HMCPacketError(
                    f"request CRC mismatch: packet carries {got:#010x}, "
                    f"computed {want:#010x}"
                )
        return pkt


@dataclass(slots=True)
class ResponsePacket:
    """A decoded HMC response packet."""

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
    def lng(self) -> int:
        """Packet length in FLITs."""
        return 1 + len(self.data) // FLIT_BYTES

    @property
    def response(self) -> Optional[hmc_response_t]:
        """The response enum member, or None for custom CMC codes."""
        try:
            return hmc_response_t(self.cmd)
        except ValueError:
            return None

    def _wire(self) -> Tuple[int, Tuple[int, ...], int]:
        """(head, data words, tail) from the memoized wire builder."""
        return _rsp_wire(
            self.cmd,
            self.tag,
            self.cub,
            self.slid,
            self.data,
            self.rrp,
            self.frp,
            self.seq,
            self.dinv,
            self.errstat,
            self.rtc,
        )

    def head(self) -> int:
        """Encode the 64-bit response header."""
        return self._wire()[0]

    def tail(self, crc: Optional[int] = None) -> int:
        """Encode the 64-bit response tail (CRC computed unless given)."""
        if crc is not None:
            w = 0
            w = field_set(w, 0, 9, self.rrp)
            w = field_set(w, 9, 9, self.frp)
            w = field_set(w, 18, 3, self.seq)
            w = field_set(w, 21, 1, self.dinv)
            w = field_set(w, 22, 7, self.errstat)
            w = field_set(w, 29, 3, self.rtc)
            return field_set(w, 32, 32, crc)
        return self._wire()[2]

    def encode(self) -> List[int]:
        """Encode the full packet as ``2*lng`` 64-bit words."""
        head, data_words, tail = self._wire()
        return [head, *data_words, tail]

    def verify_crc(self) -> None:
        """Recompute the packet CRC and check it against the tail.

        Equivalent to ``ResponsePacket.decode(rsp.encode(),
        check_crc=True)`` but verifies the already-encoded words
        directly instead of paying a full encode→decode round trip.

        Raises:
            HMCPacketError: on CRC mismatch.
        """
        head, data_words, tail = self._wire()
        want = _crc.packet_crc([head, *data_words, tail])
        got = field_get(tail, 32, 32)
        if want != got:
            raise HMCPacketError(
                f"response CRC mismatch: packet carries {got:#010x}, "
                f"computed {want:#010x}"
            )

    @classmethod
    def decode(
        cls, words: Sequence[int], *, check_crc: bool = False
    ) -> "ResponsePacket":
        """Decode a response packet from its 64-bit word representation.

        Raises:
            HMCPacketError: on length or (optional) CRC mismatch.
        """
        if len(words) < 2:
            raise HMCPacketError("a packet is at least two words (head + tail)")
        head, tail = words[0], words[-1]
        lng = field_get(head, 7, 5)
        if len(words) != 2 * lng:
            raise HMCPacketError(
                f"LNG field says {lng} FLITs ({2 * lng} words) "
                f"but buffer holds {len(words)} words"
            )
        pkt = cls(
            cmd=field_get(head, 0, 7),
            tag=field_get(head, 12, 11),
            cub=field_get(head, 61, 3),
            slid=field_get(head, 23, 3),
            data=unpack_data(words[1:-1]),
            rrp=field_get(tail, 0, 9),
            frp=field_get(tail, 9, 9),
            seq=field_get(tail, 18, 3),
            dinv=field_get(tail, 21, 1),
            errstat=field_get(tail, 22, 7),
            rtc=field_get(tail, 29, 3),
        )
        if check_crc:
            want = _crc.packet_crc(list(words))
            got = field_get(tail, 32, 32)
            if want != got:
                raise HMCPacketError(
                    f"response CRC mismatch: packet carries {got:#010x}, "
                    f"computed {want:#010x}"
                )
        return pkt


def packet_state(pkt: object) -> Dict[str, object]:
    """A request or response packet as a JSON-able dict (checkpoints):
    every field in declaration order, the payload base64 and last."""
    doc = {f.name: getattr(pkt, f.name) for f in fields(pkt) if f.name != "data"}
    doc["data"] = base64.b64encode(pkt.data).decode("ascii")
    return doc


def packet_from_state(cls: type, doc: Dict[str, object]) -> object:
    """Rebuild a ``cls`` packet from :func:`packet_state`'s dict."""
    return cls(
        data=base64.b64decode(doc["data"]),
        **{f.name: doc[f.name] for f in fields(cls) if f.name != "data"},
    )
