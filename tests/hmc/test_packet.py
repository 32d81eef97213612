"""Packet format tests: field layout, round trips, CRC, error paths."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HMCPacketError
from repro.hmc.commands import hmc_response_t, hmc_rqst_t
from repro.hmc.packet import (
    ADDR_MASK,
    CRC_BITS,
    LNG_BITS,
    MAX_CUB,
    MAX_TAG,
    RequestPacket,
    ResponsePacket,
    field_get,
    field_set,
    pack_data,
    unpack_data,
)


def _bits(lo, width):
    return set(range(lo, lo + width))


@pytest.mark.parametrize("cls", [RequestPacket, ResponsePacket])
class TestLayoutTables:
    """Each packet class's head and tail tables are its whole wire layout."""

    def test_every_wire_field_in_exactly_one_table(self, cls):
        # Head fields, data, tail fields, each once: the declaration
        # order, which is the memoized builders' positional order.
        head = [name for name, _, _ in cls._HEAD]
        tail = [name for name, _, _ in cls._TAIL]
        assert head + ["data"] + tail == [f.name for f in fields(cls) if f.compare]

    def test_no_two_ranges_in_a_word_overlap(self, cls):
        for table in (cls._HEAD, cls._TAIL):
            taken = set()
            for name, lo, width in table:
                bits = _bits(lo, width)
                assert not bits & taken, name
                assert max(bits) < 64, name
                taken |= bits

    def test_no_range_touches_lng_or_crc(self, cls):
        for name, lo, width in cls._HEAD:
            assert not _bits(lo, width) & _bits(*LNG_BITS), name
        for name, lo, width in cls._TAIL:
            assert not _bits(lo, width) & _bits(*CRC_BITS), name

    def test_instances_have_no_dict(self, cls):
        pkt = cls(**{name: 0 for name, _, _ in cls._HEAD})
        assert not hasattr(pkt, "__dict__")


class TestFieldHelpers:
    def test_set_then_get(self):
        w = field_set(0, 12, 11, 0x5A5)
        assert field_get(w, 12, 11) == 0x5A5

    def test_set_preserves_other_bits(self):
        w = (1 << 63) | 1
        w2 = field_set(w, 7, 5, 17)
        assert w2 & ((1 << 63) | 1) == (1 << 63) | 1

    def test_overflow_rejected(self):
        with pytest.raises(HMCPacketError):
            field_set(0, 0, 7, 128)

    def test_negative_rejected(self):
        with pytest.raises(HMCPacketError):
            field_set(0, 0, 7, -1)

    @given(
        lo=st.integers(0, 56),
        width=st.integers(1, 8),
        value=st.integers(0, 255),
        base=st.integers(0, (1 << 64) - 1),
    )
    def test_roundtrip_property(self, lo, width, value, base):
        value &= (1 << width) - 1
        w = field_set(base, lo, width, value)
        assert field_get(w, lo, width) == value


class TestPackData:
    def test_roundtrip(self):
        data = bytes(range(32))
        assert unpack_data(pack_data(data)) == data

    def test_little_endian_word_order(self):
        words = pack_data(b"\x01" + bytes(7) + b"\x02" + bytes(7))
        assert words == [1, 2]

    def test_unaligned_rejected(self):
        with pytest.raises(HMCPacketError):
            pack_data(b"\x00" * 7)

    @given(st.binary(min_size=0, max_size=256).filter(lambda b: len(b) % 8 == 0))
    def test_roundtrip_property(self, data):
        assert unpack_data(pack_data(data)) == data


class TestRequestPacket:
    def test_build_rd16(self):
        pkt = RequestPacket.build(hmc_rqst_t.RD16, 0x1000, 5)
        assert pkt.lng == 1
        assert pkt.cmd == int(hmc_rqst_t.RD16)
        assert pkt.data == b""

    def test_build_wr64_payload_size(self):
        pkt = RequestPacket.build(hmc_rqst_t.WR64, 0, 0, data=bytes(64))
        assert pkt.lng == 5

    def test_build_wrong_payload_size(self):
        with pytest.raises(HMCPacketError):
            RequestPacket.build(hmc_rqst_t.WR64, 0, 0, data=bytes(32))

    def test_build_cmc_needs_explicit_flits(self):
        with pytest.raises(HMCPacketError):
            RequestPacket.build(hmc_rqst_t.CMC125, 0, 0, data=bytes(16))

    def test_build_cmc_with_flits_pads(self):
        pkt = RequestPacket.build(
            hmc_rqst_t.CMC125, 0, 0, data=b"\x01", rqst_flits=2
        )
        assert pkt.lng == 2
        assert pkt.data == b"\x01" + bytes(15)

    def test_tag_range(self):
        RequestPacket.build(hmc_rqst_t.RD16, 0, MAX_TAG)
        with pytest.raises(HMCPacketError):
            RequestPacket.build(hmc_rqst_t.RD16, 0, MAX_TAG + 1)

    def test_cub_range(self):
        RequestPacket.build(hmc_rqst_t.RD16, 0, 0, cub=MAX_CUB)
        with pytest.raises(HMCPacketError):
            RequestPacket.build(hmc_rqst_t.RD16, 0, 0, cub=MAX_CUB + 1)

    def test_addr_range(self):
        RequestPacket.build(hmc_rqst_t.RD16, ADDR_MASK, 0)
        with pytest.raises(HMCPacketError):
            RequestPacket.build(hmc_rqst_t.RD16, ADDR_MASK + 1, 0)

    def test_head_field_layout(self):
        pkt = RequestPacket.build(hmc_rqst_t.RD16, 0x3FF123456, 0x2AB, cub=5)
        head = pkt.head()
        assert field_get(head, 0, 7) == int(hmc_rqst_t.RD16)
        assert field_get(head, 7, 5) == 1
        assert field_get(head, 12, 11) == 0x2AB
        assert field_get(head, 24, 34) == 0x3FF123456
        assert field_get(head, 61, 3) == 5

    def test_encode_length_is_two_words_per_flit(self):
        pkt = RequestPacket.build(hmc_rqst_t.WR32, 0, 0, data=bytes(32))
        assert len(pkt.encode()) == 2 * pkt.lng == 6

    def test_decode_roundtrip(self):
        pkt = RequestPacket.build(
            hmc_rqst_t.WR16, 0x123450, 7, cub=2, data=bytes(range(16))
        )
        pkt.slid = 3
        back = RequestPacket.decode(pkt.encode())
        assert back.cmd == pkt.cmd
        assert back.tag == pkt.tag
        assert back.addr == pkt.addr
        assert back.cub == pkt.cub
        assert back.slid == 3
        assert back.data == pkt.data

    def test_decode_crc_check_passes_on_own_encoding(self):
        pkt = RequestPacket.build(hmc_rqst_t.WR16, 0, 1, data=bytes(16))
        RequestPacket.decode(pkt.encode(), check_crc=True)

    def test_decode_crc_check_fails_on_corruption(self):
        words = RequestPacket.build(hmc_rqst_t.WR16, 0, 1, data=bytes(16)).encode()
        words[1] ^= 0xFF
        with pytest.raises(HMCPacketError, match="CRC"):
            RequestPacket.decode(words, check_crc=True)

    def test_decode_length_mismatch(self):
        words = RequestPacket.build(hmc_rqst_t.WR16, 0, 1, data=bytes(16)).encode()
        with pytest.raises(HMCPacketError, match="LNG"):
            RequestPacket.decode(words[:-2] + [words[-1]])

    def test_decode_too_short(self):
        with pytest.raises(HMCPacketError):
            RequestPacket.decode([0])

    @given(
        tag=st.integers(0, MAX_TAG),
        addr=st.integers(0, ADDR_MASK),
        cub=st.integers(0, MAX_CUB),
        data=st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, tag, addr, cub, data):
        pkt = RequestPacket.build(hmc_rqst_t.WR16, addr, tag, cub=cub, data=data)
        back = RequestPacket.decode(pkt.encode(), check_crc=True)
        assert (back.cmd, back.tag, back.addr, back.cub, back.data) == (
            pkt.cmd,
            tag,
            addr,
            cub,
            data,
        )


class TestResponsePacket:
    def test_encode_decode_roundtrip(self):
        rsp = ResponsePacket(
            cmd=int(hmc_response_t.RD_RS),
            tag=9,
            cub=1,
            slid=2,
            data=bytes(range(16)),
            errstat=0x15,
            dinv=1,
        )
        back = ResponsePacket.decode(rsp.encode(), check_crc=True)
        assert back.cmd == int(hmc_response_t.RD_RS)
        assert back.tag == 9
        assert back.cub == 1
        assert back.slid == 2
        assert back.data == bytes(range(16))
        assert back.errstat == 0x15
        assert back.dinv == 1

    def test_lng_derived_from_data(self):
        assert ResponsePacket(cmd=0x38, tag=0).lng == 1
        assert ResponsePacket(cmd=0x38, tag=0, data=bytes(32)).lng == 3

    def test_response_enum_resolution(self):
        assert ResponsePacket(cmd=0x38, tag=0).response is hmc_response_t.RD_RS
        assert ResponsePacket(cmd=0x60, tag=0).response is None  # custom CMC code

    def test_errstat_field_width(self):
        rsp = ResponsePacket(cmd=0x39, tag=0, errstat=0x7F)
        assert ResponsePacket.decode(rsp.encode()).errstat == 0x7F
        with pytest.raises(HMCPacketError):
            ResponsePacket(cmd=0x39, tag=0, errstat=0x80).encode()

    def test_metadata_not_on_wire(self):
        rsp = ResponsePacket(cmd=0x39, tag=0, inject_cycle=55, origin_dev=3)
        back = ResponsePacket.decode(rsp.encode())
        assert back.inject_cycle == -1
        assert back.origin_dev == -1

    @given(
        tag=st.integers(0, MAX_TAG),
        errstat=st.integers(0, 0x7F),
        nflits=st.integers(0, 4),
        seed=st.integers(0, 255),
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, tag, errstat, nflits, seed):
        data = bytes((seed + i) % 256 for i in range(nflits * 16))
        rsp = ResponsePacket(cmd=0x38, tag=tag, data=data, errstat=errstat)
        back = ResponsePacket.decode(rsp.encode(), check_crc=True)
        assert (back.tag, back.errstat, back.data) == (tag, errstat, data)
