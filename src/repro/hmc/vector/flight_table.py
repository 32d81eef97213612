"""Flight table: in-flight requests as columnar rows plus sidecars.

One row per in-flight request packet.  The columns hold everything the
datapath needs to route and execute the request — the decoded address
(vault/bank/quad/row), the raw request address, the command code (an
index into ``COMMAND_TABLE_LIST``), the link and cycle it arrived on, a
global allocation sequence number (the FIFO tie-breaker), and a phase
tag — so the per-cycle engine never touches the Python packet object
until the request actually executes.  The packet itself (and with it
the CMC payload, data, and wire encoding) lives in the parallel
``pkts`` sidecar list under the same index.

Hot-path access pattern, chosen after measuring per-element structured
access costs:

* allocation stores the whole row as **one** plain tuple (``meta``
  sidecar) — numpy structured scalar writes cost ~1µs/row, an order
  of magnitude more than a list store, so the hot path never touches
  the array;
* execution reads the row back by plain list index — field positions
  are the ``F_*`` constants;
* phase transitions write one int into the ``phase`` sidecar.

Bulk operations — snapshots for tests, the invariant checker, spill
audits — materialize the ``ROW_DTYPE`` structured array on demand via
:meth:`FlightTable.to_array`, which is where numpy still pays: one
vectorized build per snapshot instead of per-row bookkeeping per
cycle.  The batch executor's columnar passes work on the *memory*
arrays (see :mod:`repro.hmc.vector.batch`), not on this table.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "FlightTable",
    "PHASE_FREE",
    "PHASE_XBAR",
    "PHASE_VAULT",
    "F_TAG",
    "F_CUB",
    "F_VAULT",
    "F_BANK",
    "F_QUAD",
    "F_ROW",
    "F_PHASE",
    "F_READY",
    "F_FLITS",
    "F_CMD",
    "F_SRC_LINK",
    "F_SEQ",
    "F_INJECT",
    "F_ROUTE",
    "F_ADDR",
]

#: Row lifecycle: free slot -> queued in a crossbar link -> queued in a
#: vault.  The authoritative position is the queue holding the index;
#: the phase sidecar exists for snapshots, spill audits, and tests.
PHASE_FREE, PHASE_XBAR, PHASE_VAULT = 0, 1, 2

ROW_DTYPE = np.dtype(
    [
        ("tag", np.int32),
        ("cub", np.int16),
        ("vault", np.int16),
        ("bank", np.int16),
        ("quad", np.int16),
        ("row", np.int32),
        ("phase", np.int8),
        ("ready_cycle", np.int64),
        ("flits", np.int16),
        ("cmd", np.int16),  # index into COMMAND_TABLE_LIST
        ("src_link", np.int16),
        ("seq", np.int64),  # global allocation order: the FIFO tie-breaker
        ("inject_cycle", np.int64),
        ("route", np.int16),  # target vault, or -1 for FLOW packets
        ("addr", np.int64),  # raw request address (34-bit, unmasked)
    ]
)

# Tuple positions of ``FlightTable.item(idx)``, in ROW_DTYPE order.
(
    F_TAG,
    F_CUB,
    F_VAULT,
    F_BANK,
    F_QUAD,
    F_ROW,
    F_PHASE,
    F_READY,
    F_FLITS,
    F_CMD,
    F_SRC_LINK,
    F_SEQ,
    F_INJECT,
    F_ROUTE,
    F_ADDR,
) = range(len(ROW_DTYPE.names))


class FlightTable:
    """Fixed-capacity (doubling) pool of flight rows plus packet sidecar."""

    __slots__ = ("meta", "pkts", "phase", "active", "_free", "_seq")

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("flight table capacity must be >= 1")
        #: Whole row as one plain tuple per live index (``F_*`` order).
        self.meta: List[Optional[Tuple]] = [None] * capacity
        self.pkts: List[Optional[object]] = [None] * capacity
        #: Current lifecycle phase per index (authoritative; the tuple's
        #: ``F_PHASE`` slot records only the phase at allocation).
        self.phase: List[int] = [PHASE_FREE] * capacity
        #: Number of live (non-free) rows.
        self.active = 0
        # LIFO free list: hot reuse keeps the working set of row
        # indices small and cache-warm.
        self._free = list(range(capacity - 1, -1, -1))
        self._seq = 0

    def _grow(self) -> None:
        old = len(self.meta)
        self.meta.extend([None] * old)
        self.pkts.extend([None] * old)
        self.phase.extend([PHASE_FREE] * old)
        self._free.extend(range(old * 2 - 1, old - 1, -1))

    @property
    def capacity(self) -> int:
        return len(self.meta)

    def alloc(
        self,
        pkt,
        vault: int,
        bank: int,
        quad: int,
        row: int,
        flits: int,
        src_link: int,
        cycle: int,
        route: int,
    ) -> int:
        """Claim a row for ``pkt`` and return its index."""
        if not self._free:
            self._grow()
        idx = self._free.pop()
        seq = self._seq
        self._seq = seq + 1
        self.meta[idx] = (
            pkt.tag,
            pkt.cub,
            vault,
            bank,
            quad,
            row,
            PHASE_XBAR,
            cycle,
            flits,
            pkt.cmd,
            src_link,
            seq,
            cycle,
            route,
            pkt.addr,
        )
        self.phase[idx] = PHASE_XBAR
        self.pkts[idx] = pkt
        self.active += 1
        return idx

    def item(self, idx: int) -> Tuple:
        """The whole row as a plain Python tuple (``F_*`` indices)."""
        return self.meta[idx]

    def route(self, idx: int) -> int:
        """Target vault of ``idx``, or -1 for a FLOW packet."""
        return self.meta[idx][F_ROUTE]

    def cub_tag(self, idx: int) -> Tuple[int, int]:
        """``(cub, tag)`` of a live row (the invariant checker's view)."""
        values = self.meta[idx]
        return values[F_CUB], values[F_TAG]

    def free_row(self, idx: int) -> None:
        """Release a row back to the pool."""
        self.phase[idx] = PHASE_FREE
        self.pkts[idx] = None
        self.meta[idx] = None
        self._free.append(idx)
        self.active -= 1

    def active_indices(self) -> np.ndarray:
        """Live row indices in allocation (seq) order — stable FIFO."""
        phase = self.phase
        meta = self.meta
        live = sorted(
            (i for i in range(len(meta)) if phase[i] != PHASE_FREE),
            key=lambda i: meta[i][F_SEQ],
        )
        return np.asarray(live, dtype=np.intp)

    def to_array(self) -> np.ndarray:
        """Live rows as a fresh ``ROW_DTYPE`` array in seq order."""
        idx = self.active_indices()
        out = np.zeros(len(idx), dtype=ROW_DTYPE)
        meta = self.meta
        phase = self.phase
        for j, i in enumerate(idx):
            values = meta[i]
            out[j] = values[:F_PHASE] + (phase[i],) + values[F_PHASE + 1 :]
        return out

    def snapshot(self) -> List[dict]:
        """Live rows as dicts in seq order (tests, debugging, export)."""
        names = ROW_DTYPE.names
        meta = self.meta
        phase = self.phase
        out = []
        for i in self.active_indices():
            values = meta[i]
            doc = dict(zip(names, (int(v) for v in values)))
            doc["phase"] = phase[i]
            doc["index"] = int(i)
            out.append(doc)
        return out

    def clear(self) -> None:
        """Release every row (after a spill to the scalar path)."""
        cap = len(self.meta)
        self.meta = [None] * cap
        self.pkts = [None] * cap
        self.phase = [PHASE_FREE] * cap
        self._free = list(range(cap - 1, -1, -1))
        self.active = 0
