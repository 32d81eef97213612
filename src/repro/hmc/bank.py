"""DRAM bank state: busy windows and row-buffer tracking.

In the baseline HMC-Sim model a bank completes a request in the cycle
it is issued (the device's behaviour is dominated by queueing, which is
what the paper's evaluation studies).  The future-work timing extension
(:mod:`repro.hmc.timing`) layers DRAM timing on top: a request holds
its bank busy for a number of cycles derived from row-buffer state, and
subsequent requests to the same bank stall at the head of the vault
queue — producing the *bank conflict* events the tracer records.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from repro.hmc.components import Stateful

__all__ = ["Bank"]


@dataclass
class Bank(Stateful):
    """One bank inside a vault."""

    index: int
    #: First cycle at which a new request may be issued to this bank.
    busy_until: int = 0
    #: Currently open row, or -1 when the row buffer is closed.
    open_row: int = -1
    #: Statistics.
    accesses: int = 0
    conflicts: int = 0
    row_hits: int = 0
    row_misses: int = 0

    def snapshot_state(self) -> Dict[str, int]:
        # Every writer of a bank counts an access: an unaccessed bank
        # is fresh, which keeps a touched vault's walk short.
        return super().snapshot_state() if self.accesses else {}

    def occupy(self, cycle: int, busy_cycles: int, row: int, row_hit: bool) -> None:
        """Mark the bank busy for ``busy_cycles`` starting at ``cycle``."""
        self.accesses += 1
        if row_hit:
            self.row_hits += 1
        else:
            self.row_misses += 1
        self.open_row = row
        self.busy_until = cycle + busy_cycles


Bank.STATE = {f.name: f.default for f in fields(Bank) if f.name != "index"}
