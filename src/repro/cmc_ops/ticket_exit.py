"""``hmc_ticket_exit`` — CMC operation 23 (ticket-lock release).

Increments ``now_serving`` (bits [127:64] of the ticket structure),
handing the lock to the next ticket holder in FIFO order, and returns
the new ``now_serving`` value.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_ticket_exit"
RQST = hmc_rqst_t.CMC23
CMD = 23
RQST_LEN = 1
RSP_LEN = 2
RSP_CMD = hmc_response_t.WR_RS
RSP_CMD_CODE = 0
FOOTPRINT = 16

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
    """now_serving += 1; return the new value."""
    block = hmc.mem_read(addr, 16, dev=dev)
    serving = (int.from_bytes(block[8:], "little") + 1) & _M64
    hmc.mem_write(addr, block[:8] + serving.to_bytes(8, "little"), dev=dev)
    base.store_u64(rsp_payload, 0, serving)
    return 0
