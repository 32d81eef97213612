"""``hmc_popcount16`` — population-count demonstration CMC op (CMC05).

Counts the set bits in the 16-byte block at the target address and
returns the count in the response's low word, without moving the data
to the host.  A 1-FLIT request (no payload) and a 2-FLIT response —
the kind of reduce-in-memory operation PIM research proposes to save
bandwidth on (e.g. bitmap-index population counts).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_popcount16"
RQST = hmc_rqst_t.CMC05
CMD = 5
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
    """Return popcount(mem[addr:addr+16]) in the low response word."""
    block = hmc.mem_read(addr, 16, dev=dev)
    count = bin(int.from_bytes(block, "little")).count("1")
    base.store_u64(rsp_payload, 0, count)
    return 0
