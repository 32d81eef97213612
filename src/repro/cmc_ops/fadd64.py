"""``hmc_fadd64`` — fetch-and-add demonstration CMC operation (CMC04).

The Gen2 specification's ``ADDS16R``/``TWOADDS8R`` return the original
operand, but there is no plain 64-bit fetch-and-add.  This plugin adds
one: the request's low payload word is the addend; the response's low
word is the *original* 64-bit memory value (classic fetch-and-add
semantics, directly usable for ticket locks and work queues).

Also demonstrates a **custom response command**: ``RSP_CMD`` is
``RSP_CMC`` with wire code 0x60, so responses carry a non-standard
command code defined entirely by this plugin (§IV.C.1: "CMC
implementors have the ability to define entirely custom response
commands").
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_fadd64"
RQST = hmc_rqst_t.CMC04
CMD = 4
RQST_LEN = 2
RSP_LEN = 2
RSP_CMD = hmc_response_t.RSP_CMC
RSP_CMD_CODE = 0x60
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
    """mem64 += addend; return the original value."""
    addend = base.payload_u64(rqst_payload, 0)
    orig = int.from_bytes(hmc.mem_read(addr, 8, dev=dev), "little")
    hmc.mem_write(addr, ((orig + addend) & _M64).to_bytes(8, "little"), dev=dev)
    base.store_u64(rsp_payload, 0, orig)
    return 0
