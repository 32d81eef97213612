"""``hmc_trylock`` — CMC operation 126 (Table V of the paper).

Like ``hmc_lock``, the operation acquires the lock when it is free and
records the requester's thread id in the owner field.  The difference
is the response convention (§V.A): "rather than return the success or
failure of the operation, the response payload will contain the thread
or task ID of the unit of parallelism that currently holds the lock.
It is up to the encountering thread to check the response payload
against its respective thread ID."  Response command: ``RD_RS``,
2 FLITs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops.base import LOCK_FREE, LOCK_HELD, LOCK_STRUCT, LOCK_STRUCT_BYTES
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_trylock"
RQST = hmc_rqst_t.CMC126
CMD = 126
RQST_LEN = 2
RSP_LEN = 2
RSP_CMD = hmc_response_t.RD_RS
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
    """Try to acquire the lock; return the holder's TID in the response."""
    tid = rqst_payload[0]
    lock, owner = LOCK_STRUCT.unpack(hmc.mem_read(addr, LOCK_STRUCT_BYTES, dev=dev))
    if lock == LOCK_FREE:
        hmc.mem_write(addr, LOCK_STRUCT.pack(LOCK_HELD, tid), dev=dev)
        owner = tid
    rsp_payload[0] = owner
    return 0
