"""``hmc_bloom_insert`` — bloom-filter demonstration CMC op (CMC06).

Inserts an 8-byte key into a 512-bit (64-byte) bloom filter stored at
the target address, entirely inside the cube: the plugin derives
``K = 4`` bit positions from the key with a splitmix64-style hash,
sets them, and reports in the response's low word whether the key was
*possibly already present* (all bits were already set → 1) or
definitely new (0).

A host-side implementation would need a 64-byte read followed by a
64-byte write (plus the hashing round trips); the CMC version costs a
2-FLIT request and a 2-FLIT response — the same ~6× traffic saving
the paper's Table II shows for ``INC8``, on a far richer operation.
This is the "arbitrarily complex" end of the design space the CMC
infrastructure exists to explore.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_bloom_insert"
RQST = hmc_rqst_t.CMC06
CMD = 6
RQST_LEN = 2
RSP_LEN = 2
RSP_CMD = hmc_response_t.RD_RS
RSP_CMD_CODE = 0
FOOTPRINT = 64

#: Filter geometry: 64 bytes = 512 bits, 4 probes per key.
FILTER_BYTES = 64
FILTER_BITS = FILTER_BYTES * 8
NUM_PROBES = 4

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of splitmix64 — a cheap, well-distributed 64-bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def probe_bits(key: int) -> List[int]:
    """The ``NUM_PROBES`` bit positions a key maps to (host- and
    cube-side code share this so membership checks agree)."""
    bits = []
    h = key & _M64
    for _ in range(NUM_PROBES):
        h = _splitmix64(h)
        bits.append(h % FILTER_BITS)
    return bits


def hmcsim_execute_cmc(
    hmc,
    dev: int,
    quad: int,
    vault: int,
    bank: int,
    addr: int,
    length: int,
    head: int,
    tail: int,
    rqst_payload: Sequence[int],
    rsp_payload: List[int],
) -> int:
    """Insert the key from the low payload word; report prior presence."""
    key = base.payload_u64(rqst_payload, 0)
    filt = int.from_bytes(hmc.mem_read(addr, FILTER_BYTES, dev=dev), "little")
    was_present = 1
    for bit in probe_bits(key):
        if not (filt >> bit) & 1:
            was_present = 0
            filt |= 1 << bit
    hmc.mem_write(addr, filt.to_bytes(FILTER_BYTES, "little"), dev=dev)
    base.store_u64(rsp_payload, 0, was_present)
    return 0
