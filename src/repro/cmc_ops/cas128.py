"""``hmc_cas128`` — full-width compare-and-swap CMC op (CMC36).

The Gen2 16-byte CAS variants carry only a 16-byte operand, so they
cannot express independent compare and swap values at full width (see
the interpretation notes in :mod:`repro.hmc.amo`).  This plugin fixes
that with a **3-FLIT request**: 32 bytes of payload carrying a 16-byte
compare value and a 16-byte swap value.  The response returns the
original memory operand; the caller infers success by comparing it to
the compare value — classic CAS, at 128 bits.

Also the demonstration that CMC requests are not limited to the 2-FLIT
shape of every Gen2 atomic.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_cas128"
RQST = hmc_rqst_t.CMC36
CMD = 36
RQST_LEN = 3  # head/tail + 32B payload (compare | swap)
RSP_LEN = 2  # head/tail + 16B payload (original value)
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
    """if mem == compare: mem = swap; return original."""
    compare = b"".join(
        base.payload_u64(rqst_payload, i).to_bytes(8, "little") for i in (0, 1)
    )
    swap = b"".join(
        base.payload_u64(rqst_payload, i).to_bytes(8, "little") for i in (2, 3)
    )
    orig = hmc.mem_read(addr, 16, dev=dev)
    if orig == compare:
        hmc.mem_write(addr, swap, dev=dev)
    base.store_u64(rsp_payload, 0, int.from_bytes(orig[:8], "little"))
    base.store_u64(rsp_payload, 1, int.from_bytes(orig[8:], "little"))
    return 0
