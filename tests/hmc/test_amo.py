"""Gen2 atomic semantics tests: every Table I operation, plus properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HMCAddressError, HMCPacketError, HMCStatus
from repro.hmc.amo import (
    AMO_TABLE,
    ERRSTAT_EQ_FAIL,
    execute_amo,
    is_amo,
    reference_amo,
)
from repro.hmc.commands import (
    ARM_ATOMIC,
    COMMAND_TABLE_LIST,
    CommandKind,
    command_info,
    hmc_rqst_t,
)
from repro.hmc.config import HMCConfig
from repro.hmc.memory import MemoryBackend
from repro.hmc.sim import HMCSim
from tests.hmc import amo_read_write

_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def u64(v):
    return (v & _M64).to_bytes(8, "little")


def u128(v):
    return (v & _M128).to_bytes(16, "little")


def _int(data, signed=False):
    return int.from_bytes(data, "little", signed=signed)


@pytest.fixture
def mem():
    return MemoryBackend(4096)


class TestIsAmo:
    def test_all_atomics_recognized(self):
        for name in [
            "TWOADD8", "ADD16", "P_2ADD8", "P_ADD16", "TWOADDS8R", "ADDS16R",
            "INC8", "P_INC8", "XOR16", "OR16", "NOR16", "AND16", "NAND16",
            "CASGT8", "CASGT16", "CASLT8", "CASLT16", "CASEQ8", "CASZERO16",
            "EQ8", "EQ16", "BWR", "P_BWR", "BWR8R", "SWAP16",
        ]:
            assert is_amo(int(hmc_rqst_t[name])), name

    def test_non_atomics_rejected(self):
        for name in ["RD16", "WR16", "P_WR64", "MD_RD", "PRET", "CMC125"]:
            assert not is_amo(int(hmc_rqst_t[name])), name

    def test_execute_unknown_command_raises(self, mem):
        with pytest.raises(HMCPacketError):
            execute_amo(mem, 0, int(hmc_rqst_t.RD16), b"")


class TestAdds:
    def test_twoadd8_dual_lanes(self, mem):
        mem.write(0, u64(10) + u64(20))
        r = execute_amo(mem, 0, int(hmc_rqst_t.TWOADD8), u64(1) + u64(2))
        assert mem.read(0, 16) == u64(11) + u64(22)
        assert r.rsp_data == b""

    def test_twoadd8_signed_negative(self, mem):
        mem.write(0, u64(5) + u64(5))
        execute_amo(mem, 0, int(hmc_rqst_t.TWOADD8), u64(-7) + u64(-3))
        assert _int(mem.read(0, 8), signed=True) == -2
        assert _int(mem.read(8, 8), signed=True) == 2

    def test_twoadd8_wraps_independently(self, mem):
        mem.write(0, u64(_M64) + u64(0))
        execute_amo(mem, 0, int(hmc_rqst_t.TWOADD8), u64(1) + u64(0))
        # Lane 0 wraps to zero without carrying into lane 1.
        assert mem.read(0, 16) == u64(0) + u64(0)

    def test_twoadds8r_returns_original(self, mem):
        mem.write(0, u64(100) + u64(200))
        r = execute_amo(mem, 0, int(hmc_rqst_t.TWOADDS8R), u64(1) + u64(1))
        assert r.rsp_data == u64(100) + u64(200)
        assert mem.read(0, 16) == u64(101) + u64(201)

    def test_add16_full_width(self, mem):
        mem.write(0, u128(1 << 64))  # carries live across the 64-bit boundary
        execute_amo(mem, 0, int(hmc_rqst_t.ADD16), u128(_M64 + 1))
        assert _int(mem.read(0, 16)) == 2 << 64

    def test_add16_carry_across_lanes(self, mem):
        mem.write(0, u128(_M64))
        execute_amo(mem, 0, int(hmc_rqst_t.ADD16), u128(1))
        assert _int(mem.read(0, 16)) == 1 << 64  # unlike TWOADD8, carry propagates

    def test_adds16r_returns_original(self, mem):
        mem.write(0, u128(7))
        r = execute_amo(mem, 0, int(hmc_rqst_t.ADDS16R), u128(3))
        assert r.rsp_data == u128(7)
        assert _int(mem.read(0, 16)) == 10

    def test_posted_adds_same_memory_effect(self, mem):
        mem.write(0, u64(1) + u64(1))
        r = execute_amo(mem, 0, int(hmc_rqst_t.P_2ADD8), u64(1) + u64(1))
        assert r.rsp_data == b""
        assert mem.read(0, 16) == u64(2) + u64(2)

    def test_inc8(self, mem):
        mem.write(64, u64(41))
        r = execute_amo(mem, 64, int(hmc_rqst_t.INC8), b"")
        assert _int(mem.read(64, 8)) == 42
        assert r.rsp_data == b"" and r.errstat == 0

    def test_inc8_wraps(self, mem):
        mem.write(0, u64(_M64))
        execute_amo(mem, 0, int(hmc_rqst_t.P_INC8), b"")
        assert _int(mem.read(0, 8)) == 0

    def test_inc8_rejects_payload(self, mem):
        with pytest.raises(HMCPacketError):
            execute_amo(mem, 0, int(hmc_rqst_t.INC8), bytes(16))


class TestBooleans:
    CASES = [
        ("XOR16", lambda m, o: m ^ o),
        ("OR16", lambda m, o: m | o),
        ("NOR16", lambda m, o: ~(m | o) & _M128),
        ("AND16", lambda m, o: m & o),
        ("NAND16", lambda m, o: ~(m & o) & _M128),
    ]

    @pytest.mark.parametrize("name,fn", CASES)
    def test_semantics_and_return(self, mem, name, fn):
        m, o = 0x0F0F1234CAFE, 0x00FFAA55
        mem.write(0, u128(m))
        r = execute_amo(mem, 0, int(hmc_rqst_t[name]), u128(o))
        assert _int(mem.read(0, 16)) == fn(m, o), name
        assert r.rsp_data == u128(m), f"{name} must return the original"

    @pytest.mark.parametrize("name,fn", CASES)
    @given(m=st.integers(0, _M128), o=st.integers(0, _M128))
    @settings(max_examples=25)
    def test_property(self, name, fn, m, o):
        after, rsp, err = reference_amo(int(hmc_rqst_t[name]), u128(m), u128(o))
        assert after == u128(fn(m, o))
        assert rsp == u128(m)
        assert err == 0


class TestCAS8:
    def test_caseq8_hit(self, mem):
        mem.write(0, u64(5))
        r = execute_amo(mem, 0, int(hmc_rqst_t.CASEQ8), u64(5) + u64(99))
        assert _int(mem.read(0, 8)) == 99
        assert r.rsp_data[:8] == u64(5)

    def test_caseq8_miss(self, mem):
        mem.write(0, u64(6))
        r = execute_amo(mem, 0, int(hmc_rqst_t.CASEQ8), u64(5) + u64(99))
        assert _int(mem.read(0, 8)) == 6  # unchanged
        assert r.rsp_data[:8] == u64(6)

    def test_casgt8_signed(self, mem):
        mem.write(0, u64(-1))
        # mem (-1) > compare (-5): swap.
        execute_amo(mem, 0, int(hmc_rqst_t.CASGT8), u64(-5) + u64(7))
        assert _int(mem.read(0, 8)) == 7

    def test_casgt8_not_greater(self, mem):
        mem.write(0, u64(-10))
        execute_amo(mem, 0, int(hmc_rqst_t.CASGT8), u64(-5) + u64(7))
        assert _int(mem.read(0, 8), signed=True) == -10

    def test_caslt8(self, mem):
        mem.write(0, u64(3))
        execute_amo(mem, 0, int(hmc_rqst_t.CASLT8), u64(10) + u64(1))
        assert _int(mem.read(0, 8)) == 1

    def test_caslt8_equal_no_swap(self, mem):
        mem.write(0, u64(10))
        execute_amo(mem, 0, int(hmc_rqst_t.CASLT8), u64(10) + u64(1))
        assert _int(mem.read(0, 8)) == 10

    def test_high_half_of_memory_untouched(self, mem):
        mem.write(0, u64(5) + u64(0xABCD))
        execute_amo(mem, 0, int(hmc_rqst_t.CASEQ8), u64(5) + u64(99))
        assert _int(mem.read(8, 8)) == 0xABCD


class TestCAS16:
    def test_caszero16_hit(self, mem):
        r = execute_amo(mem, 0, int(hmc_rqst_t.CASZERO16), u128(123))
        assert _int(mem.read(0, 16)) == 123
        assert r.rsp_data == u128(0)

    def test_caszero16_miss(self, mem):
        mem.write(0, u128(5))
        r = execute_amo(mem, 0, int(hmc_rqst_t.CASZERO16), u128(123))
        assert _int(mem.read(0, 16)) == 5
        assert r.rsp_data == u128(5)

    def test_casgt16(self, mem):
        mem.write(0, u128(10))
        execute_amo(mem, 0, int(hmc_rqst_t.CASGT16), u128(5))
        assert _int(mem.read(0, 16)) == 5  # mem(10) > operand(5): swapped in

    def test_casgt16_signed_128(self, mem):
        mem.write(0, b"\xff" * 16)  # -1 as signed 128
        execute_amo(mem, 0, int(hmc_rqst_t.CASGT16), u128(3))
        assert _int(mem.read(0, 16)) == _M128  # -1 < 3: no swap

    def test_caslt16(self, mem):
        mem.write(0, u128(2))
        execute_amo(mem, 0, int(hmc_rqst_t.CASLT16), u128(5))
        assert _int(mem.read(0, 16)) == 5


class TestEqSwapBwr:
    def test_eq8_equal(self, mem):
        mem.write(0, u64(7))
        r = execute_amo(mem, 0, int(hmc_rqst_t.EQ8), u64(7) + u64(0))
        assert r.errstat == 0
        assert r.rsp_data == b""

    def test_eq8_not_equal(self, mem):
        mem.write(0, u64(7))
        r = execute_amo(mem, 0, int(hmc_rqst_t.EQ8), u64(8) + u64(0))
        assert r.errstat == ERRSTAT_EQ_FAIL

    def test_eq16(self, mem):
        mem.write(0, u128(0xABCDEF))
        assert execute_amo(mem, 0, int(hmc_rqst_t.EQ16), u128(0xABCDEF)).errstat == 0
        assert (
            execute_amo(mem, 0, int(hmc_rqst_t.EQ16), u128(0xABCDEE)).errstat
            == ERRSTAT_EQ_FAIL
        )

    def test_eq_does_not_modify_memory(self, mem):
        mem.write(0, u128(55))
        execute_amo(mem, 0, int(hmc_rqst_t.EQ16), u128(55))
        execute_amo(mem, 0, int(hmc_rqst_t.EQ16), u128(56))
        assert _int(mem.read(0, 16)) == 55

    def test_swap16(self, mem):
        mem.write(0, u128(0x1111))
        r = execute_amo(mem, 0, int(hmc_rqst_t.SWAP16), u128(0x2222))
        assert _int(mem.read(0, 16)) == 0x2222
        assert r.rsp_data == u128(0x1111)

    def test_bwr_masked_write(self, mem):
        mem.write(0, u64(0xFFFFFFFFFFFFFFFF))
        execute_amo(mem, 0, int(hmc_rqst_t.BWR), u64(0x0000) + u64(0x00FF))
        assert _int(mem.read(0, 8)) == 0xFFFFFFFFFFFFFF00

    def test_bwr_only_masked_bits_change(self, mem):
        mem.write(0, u64(0x1234))
        execute_amo(mem, 0, int(hmc_rqst_t.BWR), u64(0xAB00) + u64(0xFF00))
        assert _int(mem.read(0, 8)) == 0xAB34

    def test_bwr8r_returns_original_padded(self, mem):
        mem.write(0, u64(0x42))
        r = execute_amo(mem, 0, int(hmc_rqst_t.BWR8R), u64(0) + u64(0))
        assert r.rsp_data == u64(0x42) + bytes(8)

    def test_p_bwr_no_response(self, mem):
        r = execute_amo(mem, 0, int(hmc_rqst_t.P_BWR), u64(1) + u64(1))
        assert r.rsp_data == b""
        assert _int(mem.read(0, 8)) == 1


class TestValidation:
    def test_wrong_payload_size(self, mem):
        with pytest.raises(HMCPacketError):
            execute_amo(mem, 0, int(hmc_rqst_t.ADD16), bytes(8))

    @given(
        cmd=st.sampled_from([int(hmc_rqst_t.CASEQ8), int(hmc_rqst_t.CASGT8), int(hmc_rqst_t.CASLT8)]),
        m=st.integers(0, _M64),
        compare=st.integers(0, _M64),
        swap=st.integers(0, _M64),
    )
    @settings(max_examples=50)
    def test_cas8_property(self, cmd, m, compare, swap):
        """CAS always returns the original; swap happens iff the predicate."""
        before = u64(m) + bytes(8)
        after, rsp, _ = reference_amo(cmd, before, u64(compare) + u64(swap))
        assert rsp[:8] == u64(m)
        sm = m - (1 << 64) if m >> 63 else m
        sc = compare - (1 << 64) if compare >> 63 else compare
        pred = {
            int(hmc_rqst_t.CASEQ8): sm == sc,
            int(hmc_rqst_t.CASGT8): sm > sc,
            int(hmc_rqst_t.CASLT8): sm < sc,
        }[cmd]
        assert after[:8] == (u64(swap) if pred else u64(m))

    @given(m=st.integers(0, _M64), a=st.integers(0, _M64), b=st.integers(0, _M64))
    @settings(max_examples=50)
    def test_twoadd8_commutes_property(self, m, a, b):
        """Two TWOADD8s in either order produce the same final value."""
        before = u64(m) + u64(m)
        s1, _, _ = reference_amo(int(hmc_rqst_t.TWOADD8), before, u64(a) + u64(a))
        mem = MemoryBackend(16)
        mem.write(0, s1)
        execute_amo(mem, 0, int(hmc_rqst_t.TWOADD8), u64(b) + u64(b))
        order1 = mem.read(0, 16)
        s2, _, _ = reference_amo(int(hmc_rqst_t.TWOADD8), before, u64(b) + u64(b))
        mem2 = MemoryBackend(16)
        mem2.write(0, s2)
        execute_amo(mem2, 0, int(hmc_rqst_t.TWOADD8), u64(a) + u64(a))
        assert order1 == mem2.read(0, 16)


class TestPredecodedTable:
    """``AMO_TABLE`` is the atomic unit decoded once; it must agree with
    Table I, and with the command table's execute arm — the packet
    processor routes on ``arm`` alone and has no "is it really an
    atomic?" fallback."""

    def test_atomic_kind_iff_handler(self):
        atomic_kinds = (CommandKind.ATOMIC, CommandKind.POSTED_ATOMIC)
        for info in COMMAND_TABLE_LIST:
            has_handler = info.code in AMO_TABLE
            assert (info.kind in atomic_kinds) == has_handler, info.rqst_name
            assert (info.arm == ARM_ATOMIC) == has_handler, info.rqst_name
            assert is_amo(info.code) == has_handler

    def test_predecoded_sizes_match_table_i(self):
        assert len(AMO_TABLE) == 25
        for code, row in AMO_TABLE.items():
            handler, rqst_bytes, rsp_bytes, name, width, always_writes = row
            info = command_info(hmc_rqst_t(code))
            assert callable(handler)
            assert rqst_bytes == info.rqst_data_bytes
            assert rsp_bytes == info.rsp_data_bytes
            assert name == info.rqst.name
            assert width in (8, 16) and always_writes in (True, False)

    def test_every_command_predecodes_its_sizes(self):
        for info in COMMAND_TABLE_LIST:
            assert info.rqst_bytes == (info.rqst_data_bytes or 0)
            assert info.rsp_bytes == (info.rsp_data_bytes or 0)


def _signed(v, bits):
    """Two's-complement reading of a ``bits``-wide unsigned value."""
    return v - (1 << bits) if v >> (bits - 1) else v


def _wrap(v, bits):
    """Signed wrap at ±2^(bits-1), returned as the unsigned bit pattern."""
    return v % (1 << bits)


def _int_reference(name, m, p):
    """Pure-``int`` model of every atomic, independent of ``amo.py``.

    ``m`` is the 16 bytes at the target as one unsigned 128-bit value,
    ``p`` the 16-byte payload likewise (ignored by INC8).  Returns
    ``(memory after, response payload or None, errstat)`` with memory and
    response as unsigned ints over 16 bytes.
    """
    m_lo, m_hi = m & _M64, m >> 64
    p_lo, p_hi = p & _M64, p >> 64
    keep_hi = m_hi << 64
    if name in ("TWOADD8", "P_2ADD8", "TWOADDS8R"):
        # Two independent signed 64-bit lanes; no carry between them.
        lo = _wrap(_signed(m_lo, 64) + _signed(p_lo, 64), 64)
        hi = _wrap(_signed(m_hi, 64) + _signed(p_hi, 64), 64)
        return lo | hi << 64, m if name == "TWOADDS8R" else None, 0
    if name in ("ADD16", "P_ADD16", "ADDS16R"):
        # One signed 128-bit add: the low lane carries into the high.
        after = _wrap(_signed(m, 128) + _signed(p, 128), 128)
        return after, m if name == "ADDS16R" else None, 0
    if name in ("INC8", "P_INC8"):
        return _wrap(_signed(m_lo, 64) + 1, 64) | keep_hi, None, 0
    if name in ("XOR16", "OR16", "NOR16", "AND16", "NAND16"):
        after = {
            "XOR16": m ^ p,
            "OR16": m | p,
            "NOR16": ~(m | p),
            "AND16": m & p,
            "NAND16": ~(m & p),
        }[name] & _M128
        return after, m, 0
    if name in ("BWR", "P_BWR", "BWR8R"):
        data, mask = p_lo, p_hi
        lo = (m_lo & ~mask & _M64) | (data & mask)
        return lo | keep_hi, m_lo if name == "BWR8R" else None, 0
    if name in ("CASEQ8", "CASGT8", "CASLT8"):
        mv, cv = _signed(m_lo, 64), _signed(p_lo, 64)
        hit = {"CASEQ8": mv == cv, "CASGT8": mv > cv, "CASLT8": mv < cv}[name]
        return (p_hi if hit else m_lo) | keep_hi, m_lo, 0
    if name in ("CASGT16", "CASLT16"):
        mv, cv = _signed(m, 128), _signed(p, 128)
        hit = mv > cv if name == "CASGT16" else mv < cv
        return p if hit else m, m, 0
    if name == "CASZERO16":
        return p if m == 0 else m, m, 0
    if name == "EQ8":
        return m, None, 0 if m_lo == p_lo else ERRSTAT_EQ_FAIL
    if name == "EQ16":
        return m, None, 0 if m == p else ERRSTAT_EQ_FAIL
    if name == "SWAP16":
        return p, m, 0
    raise AssertionError(f"no reference for {name}")


#: Operands that sit on the wrap and carry boundaries, mixed with
#: arbitrary ones: per-lane sign bits, all-ones lanes, a full low lane.
_EDGES = [
    0, 1, _M64, 1 << 63, (1 << 63) - 1, 1 << 64, _M64 << 64,
    1 << 127, (1 << 127) - 1, _M128, _M128 - 1,
]
_operand = st.one_of(st.sampled_from(_EDGES), st.integers(0, _M128))


class TestAgainstIntReference:
    """The ``struct``-based handlers against a model written here in plain
    ``int`` arithmetic, so the rewrite is not pinned only by itself
    through ``reference_amo``."""

    @given(
        code=st.sampled_from(sorted(AMO_TABLE)),
        m=_operand,
        p=_operand,
    )
    @settings(max_examples=600, deadline=None)
    def test_handler_matches_reference(self, code, m, p):
        _handler, rqst_bytes, rsp_bytes, name, _, _ = AMO_TABLE[code]
        mem = MemoryBackend(64)
        mem.write(16, u128(m))
        result = execute_amo(mem, 16, code, u128(p)[:rqst_bytes])
        want_mem, want_rsp, want_errstat = _int_reference(name, m, p)
        assert mem.read(16, 16) == u128(want_mem), name
        # Neighbouring bytes are never touched.
        assert mem.read(0, 16) == bytes(16) and mem.read(32, 16) == bytes(16)
        assert result.errstat == want_errstat, name
        if want_rsp is None:
            assert result.rsp_data == b"", name
        else:
            assert result.rsp_data == u128(want_rsp), name
        assert len(result.rsp_data) == rsp_bytes

    def test_lane_wrap_and_carry_edges(self):
        """The boundaries by hand: ±2^63 per lane, carry into bit 64."""
        mem = MemoryBackend(16)
        # TWOADD8: low lane wraps INT64_MAX + 1 -> INT64_MIN and must
        # not carry into the high lane.
        mem.write(0, u64((1 << 63) - 1) + u64(5))
        execute_amo(mem, 0, int(hmc_rqst_t.TWOADD8), u64(1) + u64(0))
        assert mem.read(0, 16) == u64(1 << 63) + u64(5)
        # ADD16: the same low-lane overflow DOES carry.
        mem.write(0, u64(_M64) + u64(5))
        execute_amo(mem, 0, int(hmc_rqst_t.ADD16), u128(1))
        assert mem.read(0, 16) == u64(0) + u64(6)
        # ADD16 wraps at 2^127 as one signed 128-bit value.
        mem.write(0, u128((1 << 127) - 1))
        execute_amo(mem, 0, int(hmc_rqst_t.ADD16), u128(1))
        assert mem.read(0, 16) == u128(1 << 127)


#: Where in its page a target starts: aligned (0, 16), the page's last
#: 16 and last 8 bytes, and offsets whose operand straddles into the
#: next page (the 8-byte atomics straddle only at -4).
_PAGE_OFFSETS = (0, 16, -16, -8, -12, -4)
#: Store pages to drop after the operand is written: both (a cold
#: target), neither, or one side of a straddling target.
_COLD_PAGES = {"cold": (1, 2), "resident": (), "first": (2,), "second": (1,)}
#: A view rebased off a page boundary, as a chained topology's devices are.
_VIEW_BASE = 2048 + 40


def _store(geometry):
    """``(backend, memory the atomic runs on)``: a 4 KiB-page store, or a
    view at ``_VIEW_BASE`` of one."""
    backend = MemoryBackend(4 << 12)
    if geometry == "view":
        return backend, backend.view(_VIEW_BASE, 3 << 12)
    return backend, backend


def _outcome(execute, geometry, code, off, cold, m, payload):
    """Run one atomic on a fresh store; return everything observable."""
    backend, mem = _store(geometry)
    psize = backend.page_size
    # A target in the store's page 1, so that page 2 is the one a
    # straddling operand runs into.
    addr = psize + off % psize - (_VIEW_BASE if mem is not backend else 0)
    mem.write(addr, u128(m))
    for page_no in _COLD_PAGES[cold]:
        backend._pages.pop(page_no, None)
    before = mem.read(addr, 16)
    result = execute(mem, addr, code, payload)
    return (
        result.rsp_data,
        result.errstat,
        # Every resident page and its bytes: the page set and the image.
        list(backend.iter_resident()),
        before,
        mem.read(addr, 16),
    )


class TestInPlaceAgainstReadWrite:
    """The atomic unit computes in place on the resident page.  The
    oracle shares these handlers (``reference_amo``), so they are checked
    here on their own: against the read-then-write unit kept verbatim in
    ``amo_read_write`` (which also pins which pages get materialized) and
    against the pure-``int`` model, on the store and on a rebased view."""

    @given(
        code=st.sampled_from(sorted(AMO_TABLE)),
        off=st.sampled_from(_PAGE_OFFSETS),
        cold=st.sampled_from(sorted(_COLD_PAGES)),
        geometry=st.sampled_from(("paged", "view")),
        m=_operand,
        p=_operand,
    )
    @settings(max_examples=1500, deadline=None)
    def test_matches_read_then_write(self, code, off, cold, geometry, m, p):
        _, rqst_bytes, _, name, _, _ = AMO_TABLE[code]
        payload = u128(p)[:rqst_bytes]
        args = (geometry, code, off, cold, m, payload)
        got = _outcome(execute_amo, *args)
        assert got == _outcome(amo_read_write.execute_amo, *args), name
        rsp, errstat, _, before, after = got
        want_mem, want_rsp, want_errstat = _int_reference(
            name, int.from_bytes(before, "little"), p
        )
        assert after == u128(want_mem), name
        assert rsp == (b"" if want_rsp is None else u128(want_rsp)), name
        assert errstat == want_errstat, name

    def test_target_past_the_end_fails_alike(self):
        """A 16-byte operand over the last 8 bytes is refused with no
        page materialized; an 8-byte one there executes."""
        for geometry in ("paged", "view"):
            for code, (_, rqst_bytes, _, name, width, _) in AMO_TABLE.items():
                seen = []
                for execute in (execute_amo, amo_read_write.execute_amo):
                    backend, mem = _store(geometry)
                    try:
                        result = execute(
                            mem, mem.capacity - 8, code, bytes(rqst_bytes)
                        )
                        outcome = (result.rsp_data, result.errstat)
                    except HMCAddressError:
                        outcome = "HMCAddressError"
                    seen.append((outcome, list(backend.iter_resident())))
                assert seen[0] == seen[1], (geometry, name)
                if width == 16:
                    assert seen[0] == ("HMCAddressError", []), name

    def test_datapath_agrees_with_execute_amo(self):
        """``process_rqst`` runs the resident-page case in its own frame.
        On cube 1 of a chain (a view rebased past cube 0) its responses
        and the pages it materializes must be ``execute_amo``'s, and cube
        0's pages at the same local addresses must stay untouched."""
        filler = bytes(range(0xF0, 0x100))
        for code, (_, rqst_bytes, _, name, _, _) in sorted(AMO_TABLE.items()):
            sim = HMCSim(HMCConfig(num_devs=2, capacity=2))
            ref = MemoryBackend(sim.config.capacity_bytes)
            cube0 = MemoryBackend(sim.config.capacity_bytes)
            psize = sim.backend.page_size
            cases = [
                (off, resident, payload)
                for off in _PAGE_OFFSETS
                for resident in (False, True)
                for payload in (bytes(16), bytes(range(1, 17)))
            ]
            for tag, (off, resident, payload) in enumerate(cases):
                addr = (2 * tag + 1) * psize + off % psize
                payload = payload[:rqst_bytes]
                sim.mem_write(addr, filler, dev=0)
                cube0.write(addr, filler)
                if resident:
                    sim.mem_write(addr, filler, dev=1)
                    ref.write(addr, filler)
                want = execute_amo(ref, addr, code, payload)
                pkt = sim.build_memrequest(
                    hmc_rqst_t(code), addr, tag, cub=1, data=payload
                )
                assert sim.send(pkt) is HMCStatus.OK
                sim.drain()
                rsp = sim.recv()
                if COMMAND_TABLE_LIST[code].posted:
                    assert rsp is None
                else:
                    got = (rsp.data, rsp.errstat)
                    assert got == (want.rsp_data, want.errstat), (name, off)
            base = sim.config.capacity_bytes  # cube 1's first byte
            image = list(sim.backend.iter_resident())
            assert image == list(cube0.iter_resident()) + [
                (a + base, page) for a, page in ref.iter_resident()
            ], name
