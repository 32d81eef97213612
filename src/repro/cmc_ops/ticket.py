"""Ticket-lock CMC operation set (CMC21/22/23) — a fair alternative to Table V.

The paper's mutex set (§V.A) is a test-and-set design: under
contention, acquisition order is whoever's ``hmc_trylock`` lands first
after a release — unfair by construction.  This set explores the
obvious follow-up CMC design: a **ticket lock** in the same 16-byte
block::

    bits [63:0]    next_ticket   (incremented by every arrival)
    bits [127:64]  now_serving   (incremented by every release)

Three operations, one per module symbol set, bundled here for
convenience exactly like :mod:`repro.cmc_ops.mutex`:

* ``hmc_ticket_enter`` (CMC21) — atomically takes a ticket; the
  response carries ``(my_ticket, now_serving)`` so an arrival that
  reads ``my_ticket == now_serving`` enters immediately.
* ``hmc_ticket_wait`` (CMC22) — polls ``now_serving`` (a 1-FLIT
  request, cheaper than a trylock spin).
* ``hmc_ticket_exit`` (CMC23) — increments ``now_serving``.

The comparison against the Table V set runs in
``benchmarks/bench_ablation_fairness.py``: same worst-case magnitude,
but FIFO handoff order and bounded per-thread waiting.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.cmc import CMCOperation
from repro.hmc.sim import HMCSim

__all__ = [
    "TICKET_PLUGINS",
    "load_ticket_ops",
    "decode_enter",
    "decode_serving",
    "init_ticket_lock",
]

_M64 = (1 << 64) - 1

#: The three plugin modules, in command-code order.
TICKET_PLUGINS: Tuple[str, ...] = (
    "repro.cmc_ops.ticket_enter",
    "repro.cmc_ops.ticket_wait",
    "repro.cmc_ops.ticket_exit",
)


def load_ticket_ops(sim: HMCSim) -> List[CMCOperation]:
    """Load all three ticket-lock operations into ``sim``."""
    return [sim.load_cmc(name) for name in TICKET_PLUGINS]


def init_ticket_lock(sim: HMCSim, addr: int, *, dev: int = 0) -> None:
    """Initialize a ticket lock: next_ticket = now_serving = 0."""
    sim.mem_write(addr, bytes(16), dev=dev)


def decode_enter(data: bytes) -> Tuple[int, int]:
    """Decode an enter response: ``(my_ticket, now_serving)``."""
    return (
        int.from_bytes(data[:8], "little"),
        int.from_bytes(data[8:16], "little"),
    )


def decode_serving(data: bytes) -> int:
    """Decode a wait/exit response: the current ``now_serving``."""
    return int.from_bytes(data[:8], "little")
