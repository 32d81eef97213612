"""The sparse backing store for HMC device memory.

HMC-Sim 1.0 modelled only request *flow*; HMC-Sim 2.0 must hold real
data so that atomic and CMC operations can read-modify-write it.  An
8 GB address space cannot be allocated eagerly, so the store is
paged: 4 KiB ``bytearray`` pages are materialized on first touch and
untouched regions read as zero (the initial state the paper's mutex
model relies on: "the mutex values are initialized to a known state
that signifies that no locks are present").  Small pages keep resident
memory minimal for sparse traffic: a mutex hot spot touches one page.

All multi-byte values are little-endian.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Tuple

from repro.errors import HMCAddressError

__all__ = [
    "MemoryBackend",
    "MemoryView",
    "PAGE_SIZE",
]

#: Bytes per lazily-allocated page, and its log2.
PAGE_SIZE = 4096
_PAGE_SHIFT = 12

#: Packet-granule reads copy out of the page in one call, not a
#: bytearray slice plus a ``bytes`` conversion.
_TAKE = {n: struct.Struct(f"{n}s").unpack_from for n in (8, *range(16, 129, 16), 256)}


class MemoryBackend:
    """Lazily paged byte-addressable memory of a fixed capacity.

    Args:
        capacity: total bytes addressable through this store.
    """

    #: Store address of local address 0, as on a :class:`MemoryView`.
    _base = 0

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._pages: Dict[int, bytearray] = {}
        # Geometry constants as instance attributes, which the
        # single-page fast paths below (and MemoryView's) read.
        self._shift = _PAGE_SHIFT
        self._psize = PAGE_SIZE
        self._pmask = PAGE_SIZE - 1

    # -- bulk access ---------------------------------------------------------

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.capacity:
            raise HMCAddressError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside "
                f"capacity {self.capacity:#x}"
            )

    def read(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at ``addr`` (zero-fill for cold pages)."""
        self._check(addr, nbytes)
        off = addr & self._pmask
        if off + nbytes <= self._psize:
            # Fast path: the access stays within one page (every
            # packet-sized access — pages are >= 4 KiB, packets <= 256 B).
            page = self._pages.get(addr >> self._shift)
            if page is None:
                return bytes(nbytes)
            return bytes(page[off : off + nbytes])
        out = bytearray()
        while nbytes > 0:
            page_no, off = addr >> self._shift, addr & self._pmask
            take = min(nbytes, self._psize - off)
            page = self._pages.get(page_no)
            if page is None:
                out += bytes(take)
            else:
                out += page[off : off + take]
            addr += take
            nbytes -= take
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr``."""
        self._check(addr, len(data))
        nbytes = len(data)
        off = addr & self._pmask
        if off + nbytes <= self._psize:
            page_no = addr >> self._shift
            page = self._pages.get(page_no)
            if page is None:
                page = bytearray(self._psize)
                self._pages[page_no] = page
            page[off : off + nbytes] = data
            return
        pos = 0
        while pos < nbytes:
            page_no, off = addr >> self._shift, addr & self._pmask
            take = min(nbytes - pos, self._psize - off)
            page = self._pages.get(page_no)
            if page is None:
                page = bytearray(self._psize)
                self._pages[page_no] = page
            page[off : off + take] = data[pos : pos + take]
            addr += take
            pos += take

    # -- introspection ---------------------------------------------------------

    @property
    def page_size(self) -> int:
        """Bytes per lazily-allocated page of this store."""
        return self._psize

    def iter_resident(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(base_address, page_bytes)`` for each materialized page."""
        for page_no in sorted(self._pages):
            yield page_no << self._shift, bytes(self._pages[page_no])

    def clear(self) -> None:
        """Drop every page, returning the store to all-zeros."""
        self._pages.clear()

    def view(self, base: int, size: int) -> "MemoryView":
        """A window of this store rebased to address 0 (one device's
        slice of a chained topology's global store)."""
        return MemoryView(self, base, size)


class MemoryView:
    """A bounds-checked, rebased window onto a :class:`MemoryBackend`.

    Exposes the same accessor API as the backend; used to hand each
    device (and the atomic unit) a view where local address 0 is the
    device's first byte.  The view copies the backend's page geometry
    at construction for its single-page fast path.
    """

    __slots__ = ("_backend", "_base", "capacity", "_pages", "_shift", "_psize", "_pmask")

    def __init__(self, backend: MemoryBackend, base: int, size: int):
        if base < 0 or size < 0 or base + size > backend.capacity:
            raise HMCAddressError(
                f"view [{base:#x}, {base + size:#x}) outside backend capacity"
            )
        self._backend = backend
        self._base = base
        self.capacity = size
        # The page dict is mutated in place (clear() empties it, never
        # rebinds), so caching the reference is safe and skips one
        # attribute hop per access on the hot path.
        self._pages = backend._pages
        self._shift = backend._shift
        self._psize = backend._psize
        self._pmask = backend._pmask

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.capacity:
            raise HMCAddressError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside "
                f"view capacity {self.capacity:#x}"
            )

    def read(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at view-local ``addr``."""
        # The bounds test inline (one call per access on the execute
        # path); _check re-tests and builds the error.
        if addr < 0 or nbytes < 0 or addr + nbytes > self.capacity:
            self._check(addr, nbytes)
        # The view bounds check guarantees the rebased access is inside
        # the backend, so go straight at the page store (single-page
        # fast path) instead of re-checking through backend.read.
        a = self._base + addr
        off = a & self._pmask
        if off + nbytes <= self._psize:
            page = self._pages.get(a >> self._shift)
            if page is None:
                return bytes(nbytes)
            take = _TAKE.get(nbytes)
            if take is not None:
                return take(page, off)[0]
            return bytes(page[off : off + nbytes])
        return self._backend.read(a, nbytes)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at view-local ``addr``."""
        nbytes = len(data)
        if addr < 0 or addr + nbytes > self.capacity:
            self._check(addr, nbytes)
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
        self._backend.write(a, data)
