"""``hmc_ticket_wait`` — CMC operation 22 (ticket-lock poll).

Returns the current ``now_serving`` field of the ticket structure.  A
single-FLIT request — the cheapest possible spin probe (an
``hmc_trylock`` spin costs 2 request FLITs and mutates memory; this
costs 1 and is read-only).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_ticket_wait"
RQST = hmc_rqst_t.CMC22
CMD = 22
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
    """Return now_serving (and next_ticket, for observability)."""
    block = hmc.mem_read(addr, 16, dev=dev)
    base.store_u64(rsp_payload, 0, int.from_bytes(block[8:], "little"))
    base.store_u64(rsp_payload, 1, int.from_bytes(block[:8], "little"))
    return 0
