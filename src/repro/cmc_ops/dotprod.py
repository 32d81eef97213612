"""``hmc_dotprod8x8`` — fixed-point dot-product CMC op (CMC41).

Computes the dot product of two vectors of eight signed 64-bit
integers stored back to back at the target address (``addr`` holds x,
``addr + 64`` holds y) and returns the wrapped 64-bit sum of products.
A host-side implementation moves 128 bytes across the links (two
64-byte reads, 10 FLITs); this is 1 request FLIT + 2 response FLITs —
the bandwidth argument of Table II applied to a small-kernel reduce,
the canonical PIM motivating example.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_dotprod8x8"
RQST = hmc_rqst_t.CMC41
CMD = 41
RQST_LEN = 1
RSP_LEN = 2
RSP_CMD = hmc_response_t.RD_RS
RSP_CMD_CODE = 0
FOOTPRINT = 128  # two 64-byte vectors

#: Elements per vector and bytes per vector.
VECTOR_ELEMS = 8
VECTOR_BYTES = VECTOR_ELEMS * 8

_M64 = (1 << 64) - 1


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
    """return sum(x[i] * y[i]) wrapped to 64 bits."""
    x = hmc.mem_read(addr, VECTOR_BYTES, dev=dev)
    y = hmc.mem_read(addr + VECTOR_BYTES, VECTOR_BYTES, dev=dev)
    total = 0
    for i in range(VECTOR_ELEMS):
        xi = int.from_bytes(x[i * 8 : i * 8 + 8], "little", signed=True)
        yi = int.from_bytes(y[i * 8 : i * 8 + 8], "little", signed=True)
        total += xi * yi
    base.store_u64(rsp_payload, 0, total & _M64)
    return 0
