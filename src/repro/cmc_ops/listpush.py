"""``hmc_list_push`` — in-memory linked-list push CMC op (CMC39).

The "arbitrarily complex" end of the CMC design space: a whole data
structure operation executed inside the cube.  The list descriptor
lives at the target address::

    addr + 0   head   pointer to the newest node (0 = empty list)
    addr + 8   bump   next free node address (a bump allocator the
                      host initializes to a reserved arena)

A push allocates a 16-byte node at ``bump``, stores
``[value, next=old head]``, advances ``bump`` by 16, points ``head``
at the new node, and returns the node's address.  A host-side push
needs at least three dependent round trips (read head/bump, write
node, write head) and is race-prone; the CMC version is one 2-FLIT
request — concurrent producers from many threads are linearized by
the vault for free.

Popping/walking is ordinary reads (see
``tests/cmc_ops/test_extra_ops2.py`` for a full producer/walker
round trip).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cmc_ops import base
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

# -- Table III statics ---------------------------------------------------------

OP_NAME = "hmc_list_push"
RQST = hmc_rqst_t.CMC39
CMD = 39
RQST_LEN = 2  # head/tail + 16B payload (value in the low word)
RSP_LEN = 2  # head/tail + 16B payload (new node address)
RSP_CMD = hmc_response_t.WR_RS
RSP_CMD_CODE = 0
# No FOOTPRINT: node writes land at the bump address read from memory.

#: Bytes per list node: [value u64][next u64].
NODE_BYTES = 16


def init_list(hmc, addr: int, arena: int, *, dev: int = 0) -> None:
    """Host-side helper: empty list with its allocator at ``arena``."""
    hmc.mem_write(addr, bytes(8) + arena.to_bytes(8, "little"), dev=dev)


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
    """Allocate a node, link it at the head, return its address."""
    value = base.payload_u64(rqst_payload, 0)
    desc = hmc.mem_read(addr, 16, dev=dev)
    head_ptr = int.from_bytes(desc[:8], "little")
    bump = int.from_bytes(desc[8:], "little")
    node = bump
    hmc.mem_write(
        node,
        value.to_bytes(8, "little") + head_ptr.to_bytes(8, "little"),
        dev=dev,
    )
    hmc.mem_write(
        addr,
        node.to_bytes(8, "little") + (bump + NODE_BYTES).to_bytes(8, "little"),
        dev=dev,
    )
    base.store_u64(rsp_payload, 0, node)
    return 0
