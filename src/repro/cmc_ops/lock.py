"""``hmc_lock`` — CMC operation 125 (Table V of the paper).

Pseudocode from Table V::

    IF ( ADDR[63:0] == 0 ) {
        ADDR[127:64] = TID; ADDR[63:0] = 1; RET 1
    } ELSE {
        RET 0
    }

The request carries the issuing unit-of-parallelism's thread/task id in
the low 64 bits of its one-FLIT data payload.  On success the 16-byte
lock structure (Figure 4) records the owner and the response payload's
low word is 1; on failure memory is untouched and the response word
is 0.  Response command: ``WR_RS``, 2 FLITs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops.base import LOCK_FREE, LOCK_HELD, LOCK_STRUCT, LOCK_STRUCT_BYTES
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_lock"
RQST = hmc_rqst_t.CMC125
CMD = 125
RQST_LEN = 2
RSP_LEN = 2
RSP_CMD = hmc_response_t.WR_RS
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
    """Attempt to acquire the lock at ``addr`` (argument set per Table IV)."""
    tid = rqst_payload[0]
    lock, _ = LOCK_STRUCT.unpack(hmc.mem_read(addr, LOCK_STRUCT_BYTES, dev=dev))
    if lock == LOCK_FREE:
        hmc.mem_write(addr, LOCK_STRUCT.pack(LOCK_HELD, tid), dev=dev)
        rsp_payload[0] = 1
    else:
        rsp_payload[0] = 0
    return 0
