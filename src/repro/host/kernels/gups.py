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

import sys
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.kernels.base import COMMON, POSITIVE, KernelWorkload, register_kernel
from repro.host.thread import Program, ThreadCtx
from repro.workloads.base import Footprint, ProgramFactory

__all__ = ["gups_program", "GUPSStats", "hpcc_random_stream", "GUPSWorkload"]

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


#: Simulated memory is little-endian; a big-endian host swaps.
_SWAP = sys.byteorder == "big"


@register_kernel
class GUPSWorkload(KernelWorkload):
    """HPCC RandomAccess: XOR updates over a scattered table."""

    name = "gups"
    description = "HPCC RandomAccess (atomic XOR16 vs read-modify-write)"
    accepts_sim = False
    param_domains = {
        **COMMON,
        "updates_per_thread": POSITIVE,
        "table_entries": POSITIVE,
    }

    #: The table starts at zero (cold pages read as zero): no preload.
    _TABLE_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "updates_per_thread": 32,
            "table_entries": 4096,
            "atomic": True,
            "seed": 0x2545F4914F6CDD1D,
            "max_cycles": 2_000_000,
        }

    def _updates(self, params: Dict[str, Any]) -> array:
        """The update stream, packed; kept, so one run's :meth:`build`
        and check compute it once."""
        key = (params["seed"], params["threads"] * params["updates_per_thread"])
        kept = getattr(self, "_kept_updates", None)
        if kept is None or kept[0] != key:
            kept = self._kept_updates = (
                key,
                array("Q", hpcc_random_stream(*key)),
            )
        return kept[1]

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        upd = params["updates_per_thread"]
        updates = self._updates(params)
        entries, atomic = params["table_entries"], params["atomic"]
        return [
            lambda ctx, chunk=updates[t * upd : (t + 1) * upd]: gups_program(
                ctx, self._TABLE_BASE, entries, chunk, atomic
            )
            for t in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((self._TABLE_BASE, params["table_entries"] * 16),)

    def _table_matches(self, sim: HMCSim, params: Dict[str, Any]) -> bool:
        """Whether the table equals the XOR-fold of every update (which
        is order-independent, so exact whenever no update was lost)."""
        entries = params["table_entries"]
        table = sim.mem_read(self._TABLE_BASE, entries * 16)
        ref = array("Q", [0]) * entries
        for r in self._updates(params):
            ref[r % entries] ^= r
        if _SWAP:
            ref.byteswap()
        # Every entry's low word, through a strided view: compared in C.
        return memoryview(table).cast("Q")[::2] == ref

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        if not params["atomic"]:
            return None  # rmw mode tolerates lost updates by design
        return self._table_matches(sim, params)

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        updates = params["threads"] * params["updates_per_thread"]
        return GUPSStats(
            config_name=sim.config.describe(),
            mode="atomic" if params["atomic"] else "rmw",
            threads=params["threads"],
            updates=updates,
            cycles=result.total_cycles,
            updates_per_cycle=updates / result.total_cycles,
            requests=sum(t.requests for t in result.threads),
            # Reported, not asserted, in rmw mode.
            verified=self._table_matches(sim, params),
        )

    def cli_variants(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [dict(params, atomic=atomic) for atomic in (False, True)]

    def passed(self, stats: Any) -> bool:
        return stats.mode == "rmw" or super().passed(stats)  # rmw may lose updates

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} GUPS ({s.mode}) x{s.threads}: {s.cycles} cycles, "
            f"{s.updates_per_cycle:.3f} upd/cycle, verified={s.verified}"
        )
