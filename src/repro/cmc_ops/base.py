"""Shared helpers for CMC plugin implementations.

The paper's mutex operations act on the 16-byte lock structure of
Figure 4::

    bits [63:0]    lock value — any nonzero value means "held"
    bits [127:64]  thread/task id of the current owner (undefined
                   while the lock is free)

These helpers pack/unpack that structure and read/write 64-bit words
inside the raw request/response payload buffers that
``hmcsim_execute_cmc`` receives (Table IV) — the buffers are flat
lists of 64-bit little-endian words, and "it is up to the implementor
to discern which portions of the payload are header, data and tail".
(The bundled lock ops use :data:`LOCK_STRUCT` and the lists directly.)
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

__all__ = [
    "LOCK_FREE",
    "LOCK_HELD",
    "LOCK_STRUCT",
    "LOCK_STRUCT_BYTES",
    "lock_struct_pack",
    "lock_struct_unpack",
    "payload_u64",
    "store_u64",
    "write_lock_struct",
]

#: Lock-value encodings.  The paper reserves nonzero values other than 1
#: for future "more expressive locks (such as soft locks)".
LOCK_FREE = 0
LOCK_HELD = 1

#: The lock structure occupies one FLIT of data (16 bytes) — the minimum
#: DRAM access granularity, per §V.A.
LOCK_STRUCT_BYTES = 16

#: The Figure 4 layout, precompiled: ``unpack(data)`` is ``(lock, tid)``.
LOCK_STRUCT = struct.Struct("<QQ")

_M64 = (1 << 64) - 1


def lock_struct_pack(tid: int, lock: int) -> bytes:
    """Encode the Figure 4 lock structure (lock low, TID high)."""
    return LOCK_STRUCT.pack(lock & _M64, tid & _M64)


def lock_struct_unpack(data: bytes) -> Tuple[int, int]:
    """Decode the Figure 4 lock structure; returns ``(tid, lock)``."""
    if len(data) != LOCK_STRUCT_BYTES:
        raise ValueError(f"lock structure is {LOCK_STRUCT_BYTES} bytes, got {len(data)}")
    lock, tid = LOCK_STRUCT.unpack(data)
    return tid, lock


def payload_u64(payload: Sequence[int], index: int) -> int:
    """Read 64-bit word ``index`` from a raw payload buffer."""
    return payload[index] & _M64


def store_u64(payload: List[int], index: int, value: int) -> None:
    """Write 64-bit word ``index`` of a raw payload buffer in place."""
    payload[index] = value & _M64


def write_lock_struct(hmc, dev: int, addr: int, tid: int, lock: int) -> None:
    """Write the lock structure at a device address."""
    hmc.mem_write(addr, lock_struct_pack(tid, lock), dev=dev)
