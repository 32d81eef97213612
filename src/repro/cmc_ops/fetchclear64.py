"""``hmc_fetchclear64`` — fetch-and-clear CMC op (CMC38).

Reads the 8-byte word at the target address and zeroes it in one
atomic step, returning the original value.  The memory-side equivalent
of ``xchg reg, 0`` — the primitive behind test-and-reset flags, work
stealing ("take the whole pending bitmap"), and interrupt-status
registers.  No Gen2 atomic expresses it (``SWAP16`` is 16-byte and
needs the zero shipped in the payload; this is a 1-FLIT request).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_fetchclear64"
RQST = hmc_rqst_t.CMC38
CMD = 38
RQST_LEN = 1
RSP_LEN = 2
RSP_CMD = hmc_response_t.RD_RS
RSP_CMD_CODE = 0
FOOTPRINT = 16


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
    """tmp = mem64; mem64 = 0; return tmp."""
    orig = hmc.mem_read(addr, 8, dev=dev)
    hmc.mem_write(addr, bytes(8), dev=dev)
    base.store_u64(rsp_payload, 0, int.from_bytes(orig, "little"))
    return 0
