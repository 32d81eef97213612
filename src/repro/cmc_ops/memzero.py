"""``hmc_memzero256`` — posted zero-fill demonstration CMC op (CMC20).

Zeroes the 256-byte region at the target address.  A **posted**
operation (``RSP_LEN = 0``): the host fires and forgets, paying a
single 1-FLIT request where a host-side clear would move sixteen
FLITs of zeros across the link (a posted 256-byte write is 17 FLITs).

Exercises the posted-CMC path of the registry (the response packet is
"optional as the CMC operation may describe the request as being
posted", §IV.C.1).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_memzero256"
RQST = hmc_rqst_t.CMC20
CMD = 20
RQST_LEN = 1
RSP_LEN = 0
RSP_CMD = hmc_response_t.RSP_NONE
RSP_CMD_CODE = 0
FOOTPRINT = 256

REGION_BYTES = 256


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
    """Zero ``REGION_BYTES`` at ``addr``; no response is generated."""
    hmc.mem_write(addr, bytes(REGION_BYTES), dev=dev)
    return 0
