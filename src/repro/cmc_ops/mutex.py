"""The bundled CMC mutex operation set (§V.A of the paper).

Loads the three mutex plugins — ``hmc_lock`` (CMC125), ``hmc_trylock``
(CMC126), ``hmc_unlock`` (CMC127) — into a simulation context, and
provides the host-side convenience wrappers for building their request
packets.  The three operations are independent plugins (one per
"shared library", as the paper requires); this module is only the
bundle, mirroring how a user would ship a family of cooperating ops.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import TYPE_CHECKING, List, Tuple

from repro.cmc_ops import base
from repro.hmc.commands import hmc_rqst_t

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cmc import CMCOperation
    from repro.hmc.packet import RequestPacket
    from repro.hmc.sim import HMCSim

__all__ = [
    "MUTEX_PLUGINS",
    "load_mutex_ops",
    "build_lock",
    "build_trylock",
    "build_unlock",
    "decode_lock_response",
    "init_lock",
]

#: The three plugin modules, in command-code order.
MUTEX_PLUGINS: Tuple[str, ...] = (
    "repro.cmc_ops.lock",
    "repro.cmc_ops.trylock",
    "repro.cmc_ops.unlock",
)


def load_mutex_ops(sim: HMCSim) -> List[CMCOperation]:
    """Load all three mutex operations into ``sim``; returns the ops."""
    return [sim.load_cmc(name) for name in MUTEX_PLUGINS]


@lru_cache(maxsize=4096)
def _tid_payload(tid: int) -> bytes:
    """One FLIT of request data carrying the thread id in the low word.

    Memoized: a spinning thread rebuilds this payload on every retry
    (bytes are immutable, so sharing one object is safe).
    """
    return (tid & ((1 << 64) - 1)).to_bytes(8, "little") + bytes(8)


def build_lock(sim: HMCSim, addr: int, tag: int, tid: int, *, cub: int = 0) -> RequestPacket:
    """Build an ``hmc_lock`` request for thread ``tid``."""
    return sim.build_memrequest(
        hmc_rqst_t.CMC125, addr, tag, cub=cub, data=_tid_payload(tid)
    )


def build_trylock(sim: HMCSim, addr: int, tag: int, tid: int, *, cub: int = 0) -> RequestPacket:
    """Build an ``hmc_trylock`` request for thread ``tid``."""
    return sim.build_memrequest(
        hmc_rqst_t.CMC126, addr, tag, cub=cub, data=_tid_payload(tid)
    )


def build_unlock(sim: HMCSim, addr: int, tag: int, tid: int, *, cub: int = 0) -> RequestPacket:
    """Build an ``hmc_unlock`` request for thread ``tid``."""
    return sim.build_memrequest(
        hmc_rqst_t.CMC127, addr, tag, cub=cub, data=_tid_payload(tid)
    )


#: The low response word, precompiled (read once per mutex response).
_read_u64 = struct.Struct("<Q").unpack_from


def decode_lock_response(data: bytes) -> int:
    """Extract the low 64-bit result word from a mutex response payload.

    For ``hmc_lock``/``hmc_unlock`` this is the success flag (1/0); for
    ``hmc_trylock`` it is the thread id of the current lock holder.
    """
    if len(data) < 8:
        raise ValueError("mutex responses carry a 16-byte payload")
    return _read_u64(data)[0]


def init_lock(sim: HMCSim, addr: int, *, dev: int = 0) -> None:
    """Initialize the lock structure at ``addr`` to the free state.

    Implements the paper's *Initial State* assumption: "the mutex
    values are initialized to a known state that signifies that no
    locks are present and no threads own the lock."
    """
    base.write_lock_struct(sim, dev, addr, tid=0, lock=base.LOCK_FREE)
