"""Exhaustive wire-format and address-map property suites.

Hypothesis drives every one of the 58 specification commands and every
CMC-eligible code (CMC04..CMC127) through packet build → encode →
decode, checking head/tail field extraction, FLIT accounting, and CRC
rejection of corrupted words; and drives the address map through
encode ∘ decode == identity at the capacity boundaries (2/4/8 GB ×
every block size), including top-of-cube addresses.  The predecoded
``RequestPacket.build`` and the ``ThreadCtx`` builders are held to a
reference copy of the table-driven builder over all 128 codes.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HMCAddressError, HMCPacketError, HMCSimError
from repro.hmc.addrmap import AddressMap
from repro.hmc.commands import (
    CMC_CODES,
    DEFINED_CODES,
    FLIT_BYTES,
    MAX_PACKET_FLITS,
    CommandKind,
    command_for_code,
    command_info,
    hmc_rqst_t,
)
from repro.hmc.config import HMCConfig
from repro.hmc.packet import (
    ADDR_MASK,
    MAX_CUB,
    MAX_TAG,
    RequestPacket,
    ResponsePacket,
    field_get,
)
from repro.hmc.sim import HMCSim
from repro.host.thread import ThreadCtx

#: The full spec command inventory, sorted for deterministic sharing.
_SPEC_CODES = sorted(DEFINED_CODES)

#: Response wire command codes (RD_RS, WR_RS, MD_RD_RS, MD_WR_RS, ERROR).
_RSP_CODES = (0x38, 0x39, 0x3A, 0x3B, 0x3E)


def _build_spec(code, addr, tag, cub, fill):
    """Build any defined command with a correctly sized payload."""
    info = command_for_code(code)
    payload = bytes((fill + i) & 0xFF for i in range(info.rqst_data_bytes or 0))
    return RequestPacket.build(
        hmc_rqst_t(code), addr, tag, cub=cub, data=payload
    )


class TestRequestRoundTripAllCommands:
    @given(
        code=st.sampled_from(_SPEC_CODES),
        addr=st.integers(0, ADDR_MASK),
        tag=st.integers(0, MAX_TAG),
        cub=st.integers(0, MAX_CUB),
        fill=st.integers(0, 255),
    )
    @settings(max_examples=300)
    def test_spec_command_roundtrip(self, code, addr, tag, cub, fill):
        pkt = _build_spec(code, addr, tag, cub, fill)
        info = command_for_code(code)
        # FLIT accounting: LNG matches the command table, and the wire
        # form is exactly 2*LNG words (head + data + tail).
        assert pkt.lng == info.rqst_flits
        words = pkt.encode()
        assert len(words) == 2 * pkt.lng
        assert field_get(words[0], 7, 5) == pkt.lng
        back = RequestPacket.decode(words, check_crc=True)
        assert (back.cmd, back.tag, back.addr, back.cub, back.data) == (
            pkt.cmd, pkt.tag, pkt.addr, pkt.cub, pkt.data,
        )

    @given(
        code=st.sampled_from(_SPEC_CODES),
        addr=st.integers(0, ADDR_MASK),
        tag=st.integers(0, MAX_TAG),
    )
    @settings(max_examples=120)
    def test_head_field_extraction(self, code, addr, tag):
        pkt = _build_spec(code, addr, tag, 0, 0)
        head = pkt.head()
        assert field_get(head, 0, 7) == code
        assert field_get(head, 12, 11) == tag
        assert field_get(head, 24, 34) == addr
        assert field_get(head, 61, 3) == 0

    @given(
        rrp=st.integers(0, (1 << 9) - 1),
        frp=st.integers(0, (1 << 9) - 1),
        seq=st.integers(0, 7),
        pb=st.integers(0, 1),
        slid=st.integers(0, 7),
        rtc=st.integers(0, 7),
    )
    @settings(max_examples=120)
    def test_tail_field_extraction(self, rrp, frp, seq, pb, slid, rtc):
        pkt = RequestPacket(
            cmd=int(hmc_rqst_t.RD16), tag=1, addr=0,
            rrp=rrp, frp=frp, seq=seq, pb=pb, slid=slid, rtc=rtc,
        )
        tail = pkt.tail()
        assert field_get(tail, 0, 9) == rrp
        assert field_get(tail, 9, 9) == frp
        assert field_get(tail, 18, 3) == seq
        assert field_get(tail, 21, 1) == pb
        assert field_get(tail, 22, 3) == slid
        assert field_get(tail, 29, 3) == rtc
        back = RequestPacket.decode(pkt.encode())
        assert (back.rrp, back.frp, back.seq, back.pb, back.slid, back.rtc) == (
            rrp, frp, seq, pb, slid, rtc,
        )

    @given(
        code=st.sampled_from(CMC_CODES),
        flits=st.integers(1, 17),
        addr=st.integers(0, ADDR_MASK),
        tag=st.integers(0, MAX_TAG),
        cub=st.integers(0, MAX_CUB),
        data=st.binary(max_size=64),
    )
    @settings(max_examples=300)
    def test_cmc_roundtrip_any_code_any_length(
        self, code, flits, addr, tag, cub, data
    ):
        info = command_for_code(code)
        assert info.kind is CommandKind.CMC
        data = data[: (flits - 1) * 16]
        pkt = RequestPacket.build(
            hmc_rqst_t(code), addr, tag, cub=cub, data=data, rqst_flits=flits
        )
        assert pkt.lng == flits  # payload zero-padded to the FLIT count
        words = pkt.encode()
        assert len(words) == 2 * flits
        back = RequestPacket.decode(words, check_crc=True)
        assert (back.cmd, back.tag, back.addr, back.cub) == (code, tag, addr, cub)
        assert back.data == data + bytes((flits - 1) * 16 - len(data))


def _reference_build(rqst, addr, tag, *, cub=0, data=b"", rqst_flits=None):
    """``RequestPacket.build`` written over ``command_info`` and
    ``CommandKind``: the reference the predecoded builder must equal."""
    info = command_info(rqst)
    if info.kind is CommandKind.CMC:
        if rqst_flits is None:
            raise HMCPacketError(
                f"{rqst.name}: CMC requests need an explicit rqst_flits "
                "(use HMCSim.build_memrequest after loading the CMC op)"
            )
        flits = rqst_flits
    else:
        flits = info.rqst_flits
        assert flits is not None
    if not 1 <= flits <= MAX_PACKET_FLITS:
        raise HMCPacketError(f"request length {flits} FLITs out of range 1..17")
    want = (flits - 1) * FLIT_BYTES
    if info.kind is CommandKind.CMC and len(data) < want:
        data = data + bytes(want - len(data))
    if len(data) != want:
        raise HMCPacketError(
            f"{rqst.name}: payload is {len(data)} bytes, "
            f"a {flits}-FLIT request carries exactly {want}"
        )
    if not 0 <= tag <= MAX_TAG:
        raise HMCPacketError(f"tag {tag} outside 11-bit tag space")
    if not 0 <= cub <= MAX_CUB:
        raise HMCPacketError(f"cub {cub} outside 3-bit cube space")
    if addr < 0 or addr > ADDR_MASK:
        raise HMCPacketError(f"address {addr:#x} outside 34-bit ADRS space")
    return RequestPacket(cmd=int(rqst), tag=tag, addr=addr, cub=cub, data=data)


def _outcome(fn, *args, **kwargs):
    """A packet, or ``(exception type, message)``."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)


def _edges(lo, hi):
    """Values in ``[lo, hi]`` with the boundaries and one past them weighted."""
    return st.one_of(st.sampled_from([lo - 1, lo, hi, hi + 1]), st.integers(lo, hi))


#: The read/write sizes ``ThreadCtx`` maps onto RDn/WRn commands.
_GRANULES = (16, 32, 48, 64, 80, 96, 112, 128, 256)
_M64 = (1 << 64) - 1


class TestBuildEquivalence:
    """The predecoded ``build`` and the ``ThreadCtx`` builders return what
    the reference builder and ``build_memrequest`` return, or raise the
    same exception with the same text, for every command code."""

    @given(
        code=st.integers(0, 127),
        nbytes=st.one_of(
            st.sampled_from([16 * k for k in range(18)]), st.integers(0, 300)
        ),
        fill=st.integers(0, 255),
        tag=_edges(0, MAX_TAG),
        cub=_edges(0, MAX_CUB),
        addr=_edges(0, ADDR_MASK),
        rqst_flits=st.one_of(st.none(), st.integers(1, 18)),
    )
    @settings(max_examples=1500)
    def test_build_matches_reference(
        self, code, nbytes, fill, tag, cub, addr, rqst_flits
    ):
        rqst = hmc_rqst_t(code)
        data = bytes((fill + i) & 0xFF for i in range(nbytes))
        kwargs = dict(cub=cub, data=data, rqst_flits=rqst_flits)
        want = _outcome(_reference_build, rqst, addr, tag, **kwargs)
        got = _outcome(RequestPacket.build, rqst, addr, tag, **kwargs)
        assert got == want

    @given(
        tid=st.integers(0, MAX_TAG),
        cub=st.integers(0, MAX_CUB),
        addr=st.integers(0, ADDR_MASK),
        nbytes=st.sampled_from(_GRANULES),
        fill=st.integers(0, 255),
        posted=st.booleans(),
        compare=st.integers(-(1 << 64), 1 << 65),
        swap=st.integers(-(1 << 64), 1 << 65),
    )
    @settings(max_examples=300)
    def test_thread_builders_match_build_memrequest(
        self, tid, cub, addr, nbytes, fill, posted, compare, swap
    ):
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        ctx = ThreadCtx(sim, tid, link=0, cub=cub)
        data = bytes((fill + i) & 0xFF for i in range(nbytes))
        operand = data[:16]
        cas = (compare & _M64).to_bytes(8, "little") + (swap & _M64).to_bytes(
            8, "little"
        )

        def memrequest(name, payload=b""):
            return sim.build_memrequest(
                hmc_rqst_t[name], addr, tid, cub=cub, data=payload
            )

        assert ctx.read(addr, nbytes) == memrequest(f"RD{nbytes}")
        assert ctx.write(addr, data, posted) == memrequest(
            f"{'P_' if posted else ''}WR{nbytes}", data
        )
        assert ctx.inc8(addr, posted) == memrequest("P_INC8" if posted else "INC8")
        assert ctx.xor16(addr, operand) == memrequest("XOR16", operand)
        assert ctx.caseq8(addr, compare, swap) == memrequest("CASEQ8", cas)

    def test_thread_builder_refusals(self, sim):
        ctx = ThreadCtx(sim, 0, link=0)
        for kind, build in (
            ("read", lambda: ctx.read(0, 24)),
            ("write", lambda: ctx.write(0, bytes(24))),
        ):
            message = f"{kind} size 24 is not an HMC granule {list(_GRANULES)}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()
        with pytest.raises(HMCPacketError, match="XOR16: payload is 8 bytes"):
            ctx.xor16(0, bytes(8))
        sim.free()
        for build in (
            lambda: ctx.read(0, 64),
            lambda: ctx.write(0, bytes(16)),
            lambda: ctx.inc8(0),
            lambda: ctx.xor16(0, bytes(16)),
            lambda: ctx.caseq8(0, 1, 2),
            lambda: ctx.request(hmc_rqst_t.RD16, 0),
        ):
            with pytest.raises(HMCSimError, match="has been freed"):
                build()


class TestResponseRoundTrip:
    @given(
        code=st.sampled_from(_RSP_CODES),
        tag=st.integers(0, MAX_TAG),
        cub=st.integers(0, MAX_CUB),
        slid=st.integers(0, 7),
        dinv=st.integers(0, 1),
        errstat=st.integers(0, (1 << 7) - 1),
        nflits=st.integers(0, 16),
        fill=st.integers(0, 255),
    )
    @settings(max_examples=300)
    def test_response_roundtrip(
        self, code, tag, cub, slid, dinv, errstat, nflits, fill
    ):
        data = bytes((fill + i) & 0xFF for i in range(nflits * 16))
        rsp = ResponsePacket(
            cmd=code, tag=tag, cub=cub, slid=slid,
            dinv=dinv, errstat=errstat, data=data,
        )
        assert rsp.lng == 1 + nflits
        words = rsp.encode()
        assert len(words) == 2 * rsp.lng
        assert field_get(words[0], 23, 3) == slid
        assert field_get(words[-1], 21, 1) == dinv
        assert field_get(words[-1], 22, 7) == errstat
        back = ResponsePacket.decode(words, check_crc=True)
        assert back == rsp  # simulator-metadata fields excluded (compare=False)


class TestCRCRejection:
    @given(
        code=st.sampled_from(_SPEC_CODES),
        addr=st.integers(0, ADDR_MASK),
        tag=st.integers(0, MAX_TAG),
        fill=st.integers(0, 255),
        bit=st.integers(0, 63),
    )
    @settings(max_examples=300)
    def test_single_bit_tail_corruption_rejected(
        self, code, addr, tag, fill, bit
    ):
        words = _build_spec(code, addr, tag, 0, fill).encode()
        words[-1] ^= 1 << bit
        with pytest.raises(HMCPacketError, match="CRC"):
            RequestPacket.decode(words, check_crc=True)

    @given(
        code=st.sampled_from(_SPEC_CODES),
        fill=st.integers(0, 255),
        word=st.integers(0, 16),
        bit=st.integers(0, 63),
    )
    @settings(max_examples=200)
    def test_single_bit_corruption_any_word_rejected(
        self, code, fill, word, bit
    ):
        words = _build_spec(code, 0x1000, 5, 0, fill).encode()
        target = word % (len(words) - 1)  # any word except the tail
        flipped = list(words)
        flipped[target] ^= 1 << bit
        if field_get(flipped[0], 7, 5) != len(flipped) // 2:
            # The flip hit the LNG field: rejected earlier, as a
            # length mismatch rather than a CRC failure.
            with pytest.raises(HMCPacketError):
                RequestPacket.decode(flipped, check_crc=True)
        else:
            with pytest.raises(HMCPacketError, match="CRC"):
                RequestPacket.decode(flipped, check_crc=True)

    @given(
        tag=st.integers(0, MAX_TAG),
        nflits=st.integers(0, 4),
        bit=st.integers(0, 63),
    )
    @settings(max_examples=120)
    def test_response_tail_corruption_rejected(self, tag, nflits, bit):
        rsp = ResponsePacket(cmd=0x38, tag=tag, data=bytes(nflits * 16))
        words = rsp.encode()
        words[-1] ^= 1 << bit
        with pytest.raises(HMCPacketError, match="CRC"):
            ResponsePacket.decode(words, check_crc=True)


#: Every (capacity GB, block size) geometry the configuration accepts.
_GEOMETRIES = [
    (cap, bsize) for cap in (2, 4, 8) for bsize in (32, 64, 128, 256)
]


@pytest.mark.parametrize("cap,bsize", _GEOMETRIES)
class TestAddrmapBijectivity:
    def _map(self, cap, bsize, **kw):
        return AddressMap(HMCConfig(capacity=cap, bsize=bsize, **kw))

    def test_top_of_cube_roundtrip(self, cap, bsize):
        am = self._map(cap, bsize)
        top = (cap << 30) - 1
        for addr in (0, top, top - bsize + 1, (cap << 30) // 2):
            d = am.decode(addr)
            assert (
                am.encode(d.vault, d.bank, d.row, d.offset, dev=d.dev) == addr
            )

    def test_first_address_beyond_capacity_rejected(self, cap, bsize):
        am = self._map(cap, bsize)
        with pytest.raises(HMCAddressError):
            am.decode(cap << 30)
        with pytest.raises(HMCAddressError):
            am.decode(-1)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_decode_encode_identity(self, cap, bsize, data):
        am = self._map(cap, bsize)
        addr = data.draw(st.integers(0, (cap << 30) - 1))
        d = am.decode(addr)
        assert am.encode(d.vault, d.bank, d.row, d.offset, dev=d.dev) == addr
        assert am.vault_of(addr) == d.vault
        assert am.bank_of(addr) == d.bank

    @given(data=st.data())
    @settings(max_examples=60)
    def test_encode_decode_identity(self, cap, bsize, data):
        cfg = HMCConfig(capacity=cap, bsize=bsize)
        am = AddressMap(cfg)
        vault = data.draw(st.integers(0, cfg.num_vaults - 1))
        bank = data.draw(st.integers(0, cfg.num_banks - 1))
        row = data.draw(st.integers(0, (1 << am.row_bits) - 1))
        offset = data.draw(st.integers(0, bsize - 1))
        addr = am.encode(vault, bank, row, offset)
        assert 0 <= addr < cfg.capacity_bytes
        d = am.decode(addr)
        assert (d.vault, d.bank, d.row, d.offset) == (vault, bank, row, offset)

    def test_bank_interleave_also_bijective(self, cap, bsize):
        am = self._map(cap, bsize, addr_interleave="bank")
        top = (cap << 30) - 1
        for addr in (0, top, top - 7 * bsize):
            d = am.decode(addr)
            assert (
                am.encode(d.vault, d.bank, d.row, d.offset, dev=d.dev) == addr
            )
