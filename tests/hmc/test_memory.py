"""Backing-store tests: paging, zero-fill, typed accessors, views."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HMCAddressError
from repro.hmc.memory import PAGE_SIZE, MemoryBackend, MemoryView


@pytest.fixture
def mem():
    return MemoryBackend(1 << 20)


class TestBasicRW:
    def test_cold_reads_zero(self, mem):
        assert mem.read(0x1234, 16) == bytes(16)

    def test_write_read_roundtrip(self, mem):
        mem.write(100, b"hello world!")
        assert mem.read(100, 12) == b"hello world!"

    def test_cross_page_write(self, mem):
        data = bytes(range(256)) * 32  # 8 KiB, spans 3 pages
        mem.write(PAGE_SIZE - 100, data)
        assert mem.read(PAGE_SIZE - 100, len(data)) == data

    def test_cross_page_read_mixed_cold_hot(self, mem):
        mem.write(PAGE_SIZE - 4, b"\xaa\xbb\xcc\xdd")
        got = mem.read(PAGE_SIZE - 8, 16)
        assert got == bytes(4) + b"\xaa\xbb\xcc\xdd" + bytes(8)

    def test_out_of_bounds(self, mem):
        with pytest.raises(HMCAddressError):
            mem.read((1 << 20) - 8, 16)
        with pytest.raises(HMCAddressError):
            mem.write((1 << 20) - 8, bytes(16))
        with pytest.raises(HMCAddressError):
            mem.read(-1, 4)

    def test_zero_length(self, mem):
        assert mem.read(0, 0) == b""
        mem.write(0, b"")  # no-op

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemoryBackend(0)


class TestLazyPaging:
    def test_reads_do_not_materialize(self, mem):
        mem.read(0, PAGE_SIZE * 4)
        assert list(mem.iter_resident()) == []

    def test_writes_materialize_touched_pages_only(self, mem):
        mem.write(PAGE_SIZE * 3 + 5, b"x")
        assert [(base, len(page)) for base, page in mem.iter_resident()] == [
            (PAGE_SIZE * 3, PAGE_SIZE)
        ]

    def test_clear(self, mem):
        mem.write(0, b"abc")
        mem.clear()
        assert list(mem.iter_resident()) == []
        assert mem.read(0, 3) == bytes(3)

    def test_iter_resident(self, mem):
        mem.write(PAGE_SIZE * 2, b"z")
        pages = list(mem.iter_resident())
        assert len(pages) == 1
        base, content = pages[0]
        assert base == PAGE_SIZE * 2
        assert content[0] == ord("z")


class TestMemoryView:
    def test_rebased_access(self, mem):
        view = mem.view(0x1000, 0x1000)
        view.write(0, b"data")
        assert mem.read(0x1000, 4) == b"data"
        assert view.read(0, 4) == b"data"

    def test_view_bounds(self, mem):
        view = mem.view(0x1000, 0x100)
        with pytest.raises(HMCAddressError):
            view.read(0x100, 1)
        with pytest.raises(HMCAddressError):
            view.write(-1, b"x")

    def test_view_creation_bounds(self, mem):
        with pytest.raises(HMCAddressError):
            mem.view((1 << 20) - 10, 100)

    def test_disjoint_views_isolated(self, mem):
        a = mem.view(0, 0x1000)
        b = mem.view(0x1000, 0x1000)
        a.write(0, b"\x11")
        assert b.read(0, 1) == b"\x00"


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 4000), st.binary(min_size=1, max_size=64)),
        max_size=20,
    )
)
@settings(max_examples=50)
def test_backend_matches_flat_model(writes):
    """The paged store behaves exactly like one flat bytearray."""
    mem = MemoryBackend(8192)
    flat = bytearray(8192)
    for addr, data in writes:
        mem.write(addr, data)
        flat[addr : addr + len(data)] = data
    assert mem.read(0, 8192) == bytes(flat)
