"""HPCC RandomAccess (GUPS) kernel (random access; HMC-Sim 1.0 eval, §II).

RandomAccess applies ``table[r % size] ^= r`` for a stream of
pseudo-random values — the pathological scatter workload the HMC-Sim
prior work ran against the stride-1 STREAM kernel.  Two host
strategies are implemented:

* **read-modify-write** (the traditional kernel): RD16 the table
  entry, XOR host-side, WR16 it back — two round trips per update;
* **atomic offload**: a single ``XOR16`` atomic performs the update
  in-situ — one round trip and half the packets, the PIM win the
  Gen2 atomics exist for.

The updates use the HPCC LCG so runs are deterministic and the final
table can be verified exactly against a host-side reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.host.thread import Program, ThreadCtx

__all__ = ["gups_program", "GUPSStats", "hpcc_random_stream"]

_M64 = (1 << 64) - 1
#: The XOR16 operand's unused high word.
_ZERO8 = bytes(8)
#: HPCC RandomAccess polynomial constant.
_POLY = 0x0000000000000007


def hpcc_random_stream(seed: int, count: int) -> List[int]:
    """The HPCC RandomAccess pseudo-random sequence (GF(2) LFSR)."""
    out = []
    v = seed & _M64
    if v == 0:
        v = 1
    for _ in range(count):
        v = ((v << 1) ^ (_POLY if v >> 63 else 0)) & _M64
        out.append(v)
    return out


def gups_program(
    ctx: ThreadCtx,
    table_base: int,
    table_entries: int,
    updates: List[int],
    use_atomic: bool,
) -> Program:
    """Apply ``table[r % entries] ^= r`` for each r in ``updates``."""
    for r in updates:
        idx = r % table_entries
        addr = table_base + idx * 16
        if use_atomic:
            yield ctx.xor16(addr, (r & _M64).to_bytes(8, "little") + _ZERO8)
        else:
            rsp = yield ctx.read(addr, 16)
            old = int.from_bytes(rsp.data[:8], "little")
            new = (old ^ r) & _M64
            yield ctx.write(addr, new.to_bytes(8, "little") + rsp.data[8:])


@dataclass(frozen=True)
class GUPSStats:
    """Result of one RandomAccess run."""

    config_name: str
    mode: str  # "rmw" or "atomic"
    threads: int
    updates: int
    cycles: int
    #: Updates retired per device cycle.
    updates_per_cycle: float
    #: Request packets sent (two per update for rmw, one for atomic).
    requests: int
    verified: bool
