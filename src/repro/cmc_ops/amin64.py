"""``hmc_amin64`` — atomic signed minimum demonstration CMC op (CMC07).

``mem64 = min(mem64, operand)`` over signed 64-bit values, returning
the original value.  Atomic min/max are the canonical missing atomics
in the Gen2 set (graph algorithms such as SSSP relaxations want them);
proposing them as CMC candidates is precisely the cost-benefit
exercise the paper's introduction motivates.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_amin64"
RQST = hmc_rqst_t.CMC07
CMD = 7
RQST_LEN = 2
RSP_LEN = 2
RSP_CMD = hmc_response_t.RD_RS
RSP_CMD_CODE = 0
FOOTPRINT = 16

_M64 = (1 << 64) - 1


def _signed(v: int) -> int:
    return v - (1 << 64) if v >> 63 else v


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
    """mem64 = min(mem64, operand) signed; return the original value."""
    operand = base.payload_u64(rqst_payload, 0)
    orig = int.from_bytes(hmc.mem_read(addr, 8, dev=dev), "little")
    if _signed(operand) < _signed(orig):
        hmc.mem_write(addr, (operand & _M64).to_bytes(8, "little"), dev=dev)
    base.store_u64(rsp_payload, 0, orig)
    return 0
