"""``hmc_unlock`` — CMC operation 127 (Table V of the paper).

Pseudocode from Table V::

    IF ( ADDR[127:64] == TID && ADDR[63:0] == 1 ) {
        ADDR[63:0] = 0; RET 1
    } ELSE {
        RET 0
    }

The unlock succeeds only when the requester's thread id matches the
recorded owner *and* the lock is held — a thread can never release a
lock it does not own.  Response convention follows ``hmc_lock``:
``WR_RS``, 2 FLITs, low response word 1 on success / 0 on failure.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops.base import LOCK_FREE, LOCK_HELD, LOCK_STRUCT, LOCK_STRUCT_BYTES
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_unlock"
RQST = hmc_rqst_t.CMC127
CMD = 127
RQST_LEN = 2
RSP_LEN = 2
RSP_CMD = hmc_response_t.WR_RS
RSP_CMD_CODE = 0


def cmc_str() -> str:
    """Trace-file name for this operation."""
    return OP_NAME


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
    """Release the lock at ``addr`` if the requester owns it."""
    tid = rqst_payload[0]
    lock, owner = LOCK_STRUCT.unpack(hmc.mem_read(addr, LOCK_STRUCT_BYTES, dev=dev))
    if lock == LOCK_HELD and owner == tid:
        hmc.mem_write(addr, LOCK_STRUCT.pack(LOCK_FREE, owner), dev=dev)
        rsp_payload[0] = 1
    else:
        rsp_payload[0] = 0
    return 0
