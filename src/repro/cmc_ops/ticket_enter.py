"""``hmc_ticket_enter`` — CMC operation 21 (ticket-lock arrival).

Atomically increments ``next_ticket`` (bits [63:0] of the 16-byte
ticket structure) and returns the taken ticket together with the
current ``now_serving`` (bits [127:64]) in one response — the arrival
learns in a single round trip whether it already owns the lock.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_ticket_enter"
RQST = hmc_rqst_t.CMC21
CMD = 21
RQST_LEN = 1
RSP_LEN = 2
RSP_CMD = hmc_response_t.RD_RS
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
    """my = next_ticket++; return (my, now_serving)."""
    block = hmc.mem_read(addr, 16, dev=dev)
    next_ticket = int.from_bytes(block[:8], "little")
    now_serving = int.from_bytes(block[8:], "little")
    hmc.mem_write(
        addr, ((next_ticket + 1) & _M64).to_bytes(8, "little") + block[8:], dev=dev
    )
    base.store_u64(rsp_payload, 0, next_ticket)
    base.store_u64(rsp_payload, 1, now_serving)
    return 0
