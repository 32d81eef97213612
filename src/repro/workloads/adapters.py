"""The nine hand-written host kernels as native workload frontends.

Each class here is the one statement of its kernel behind the
:class:`~repro.workloads.base.WorkloadFrontend` seam: the parameter set
and its valid ranges, the initial device state (:meth:`prepare`), the
thread fan-out (:meth:`build`), and the stats built from the engine
result (:meth:`stats`).  The base class's ``run`` drives the seven
single-engine kernels; BFS and SSSP run one engine wave per
frontier/relaxation round, so they override ``run`` with that
orchestration (and are neither recordable nor drivable on a warm
context).  The thread programs, data generators, and ``*Stats``
dataclasses live under :mod:`repro.host.kernels`.

The module name is historical — these classes once adapted per-kernel
``run_*`` entrypoints, since deleted.  It stays because the registry
fingerprint (``module:qualname@version``) is digested into served
payloads, sweep-cache keys, and the ``perfbench`` goldens; renaming it
belongs to a benchmark PR that re-captures those goldens.

Each concrete frontend registers itself with
:func:`~repro.workloads.registry.register_workload`; no other module
may import one (workload-containment lint) — resolve it by name.
"""

from __future__ import annotations

import operator
import struct
from itertools import repeat
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.cmc_ops.mutex import init_lock, load_mutex_ops
from repro.cmc_ops.ticket import init_ticket_lock, load_ticket_ops
from repro.errors import WorkloadError
from repro.faults.watchdog import TagWatchdog
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.hmc.timing import DEFAULT_TIMING
from repro.host.engine import HostEngine
from repro.host.kernels import (
    barrier,
    bfs,
    gups,
    histogram,
    mutex_kernel,
    pointer_chase,
    sssp,
    stream,
    ticket_kernel,
)
from repro.host.window import WindowedEngine
from repro.parallel.tasks import TaskSpec
from repro.workloads.base import Footprint, ProgramFactory, WorkloadFrontend
from repro.workloads.registry import register_workload

__all__ = [
    "MutexWorkload",
    "TicketWorkload",
    "StreamWorkload",
    "GUPSWorkload",
    "BFSWorkload",
    "HistogramWorkload",
    "PointerChaseWorkload",
    "BarrierWorkload",
    "SSSPWorkload",
]

#: Shared parameter domains.  Every kernel bounds its deadlock guard
#: and its thread count: the engine's 11-bit tag space ends at 2048.
_POSITIVE = (1, None)
_NON_NEGATIVE = (0, None)
_COMMON = {"threads": (1, 2048), "max_cycles": _POSITIVE}


def _u64_at(data: bytes, slot: int) -> int:
    """The low word of the ``slot``-th 16-byte block of ``data``."""
    return int.from_bytes(data[slot * 16 : slot * 16 + 8], "little")


def _link_flits(sim: HMCSim) -> int:
    """Request+response FLITs moved across every link so far."""
    return sum(
        link.flits_in + link.flits_out for d in sim.devices for link in d.links
    )


class KernelWorkload(WorkloadFrontend):
    """Shared shape of the kernel frontends.  Each also supplies
    ``format_stats(stats, fault_plan=None)``: its one CLI output line."""

    kind = "kernel"
    #: Whether the ``kernel`` CLI subcommand offers this workload.
    cli_kernel = True

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        """Parameter dicts the ``kernel`` subcommand runs, in order."""
        return [{"threads": threads}]


@register_workload
class MutexWorkload(KernelWorkload):
    """Algorithm 1: the paper's lock/trylock/unlock contention kernel."""

    name = "mutex"
    description = "Algorithm-1 lock contention (the paper's §V.B sweep)"
    supports_faults = True
    recordable = True
    # The kernel's own version tag feeds the registry fingerprint, so
    # the historical "bump KERNEL_VERSION on semantic change" discipline
    # keeps invalidating cached sweep points.
    version = mutex_kernel.KERNEL_VERSION
    param_domains = {
        **_COMMON,
        "lock_addr": _NON_NEGATIVE,
        "oracle_sample": _POSITIVE,
    }

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "lock_addr": mutex_kernel.DEFAULT_LOCK_ADDR,
            "max_cycles": mutex_kernel.DEFAULT_MAX_CYCLES,
            # 1-in-N online oracle sampling; None = off.  Incompatible
            # with a fault plan (the engine refuses the pair).
            "oracle_sample": None,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        # Guard on this bundle's own command codes, not "any ops": a
        # warm context (serve session) may already carry a different
        # workload's CMC family.
        if sim.cmc.lookup(125) is None:
            load_mutex_ops(sim)
        init_lock(sim, params["lock_addr"])

    def new_engine(self, sim: HMCSim, params: Dict[str, Any], fault_plan: Any):
        if fault_plan is not None and sim.faults is None:
            sim.attach_faults(fault_plan)
        # A faulty run gets a per-tag watchdog: dropped responses are
        # retransmitted instead of deadlocking the sweep.
        watchdog = (
            TagWatchdog(timeout=mutex_kernel.FAULT_WATCHDOG_TIMEOUT)
            if sim.faults is not None
            else None
        )
        return HostEngine(
            sim,
            max_cycles=params["max_cycles"],
            watchdog=watchdog,
            oracle_sample=params["oracle_sample"],
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        lock_addr = params["lock_addr"]
        return [
            lambda ctx: mutex_kernel.mutex_program(ctx, lock_addr)
            for _ in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["lock_addr"], 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        # Every thread unlocks on its way out: the lock word ends free.
        return _u64_at(sim.mem_read(params["lock_addr"], 8), 0) == 0

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return mutex_kernel.MutexRunStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            min_cycle=result.min_cycle,
            max_cycle=result.max_cycle,
            avg_cycle=result.avg_cycle,
            total_cycles=result.total_cycles,
            send_stalls=result.send_stalls,
            cmc_executions=sum(op.executions for op in sim.cmc.operations()),
            faults_injected=(
                sum(sim.faults.counters().values()) if sim.faults is not None else 0
            ),
            retransmits=result.retransmits,
            oracle_checks=result.oracle_checks,
        )

    def task_spec(
        self,
        config: HMCConfig,
        threads: int,
        *,
        lock_addr: int = mutex_kernel.DEFAULT_LOCK_ADDR,
        max_cycles: int = mutex_kernel.DEFAULT_MAX_CYCLES,
        fault_plan: Any = None,
    ) -> TaskSpec:
        """One picklable sweep point for the parallel experiment engine.

        A worker process reproduces the point from scratch through the
        registry (:func:`repro.workloads.registry.run_spec`); the cache
        key folds in the registry fingerprint plus the config and
        component fingerprints — and the fault-plan fingerprint when
        one is attached (see :mod:`repro.parallel.tasks`).
        """
        return TaskSpec(
            kernel=self.name,
            kernel_version=self.version,
            runner="repro.workloads.registry:run_spec",
            config=config,
            threads=threads,
            params=(("lock_addr", lock_addr), ("max_cycles", max_cycles)),
            fault_plan=fault_plan,
        )

    def format_stats(self, s, fault_plan=None) -> str:
        line = (
            f"{s.config_name} mutex x{s.threads}: min={s.min_cycle} "
            f"max={s.max_cycle} avg={s.avg_cycle:.2f} "
            f"(cmc executions: {s.cmc_executions})"
        )
        if fault_plan is not None:
            line += (
                f" [{fault_plan.describe()}: {s.faults_injected} faults, "
                f"{s.retransmits} retransmits]"
            )
        if s.oracle_checks:
            line += f" [oracle: {s.oracle_checks} checks, 0 divergences]"
        return line


@register_workload
class TicketWorkload(KernelWorkload):
    """FIFO ticket lock over the CMC21/22/23 triple."""

    name = "ticket"
    description = "FIFO ticket lock (CMC enter/wait/exit)"
    recordable = True
    param_domains = {**_COMMON, "lock_addr": _NON_NEGATIVE}

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "lock_addr": ticket_kernel.DEFAULT_LOCK_ADDR,
            "max_cycles": 1_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if sim.cmc.lookup(21) is None:
            load_ticket_ops(sim)
        init_ticket_lock(sim, params["lock_addr"])

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        lock_addr = params["lock_addr"]
        self._acquisitions: List[int] = []
        acquisitions = self._acquisitions
        return [
            lambda ctx: ticket_kernel.ticket_program(ctx, lock_addr, acquisitions)
            for _ in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["lock_addr"], 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        # Granted in strict ticket (arrival) order, once per thread.
        acquired = getattr(self, "_acquisitions", None)
        if acquired is None:
            return None
        return acquired == sorted(acquired) and len(acquired) == params["threads"]

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return ticket_kernel.TicketRunStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            min_cycle=result.min_cycle,
            max_cycle=result.max_cycle,
            avg_cycle=result.avg_cycle,
            total_cycles=result.total_cycles,
            fifo_order=self.verify(sim, params, result),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} ticket x{s.threads}: min={s.min_cycle} "
            f"max={s.max_cycle} avg={s.avg_cycle:.2f} fifo={s.fifo_order}"
        )


@register_workload
class StreamWorkload(KernelWorkload):
    """STREAM Triad over three disjoint double arrays.

    With ``windowed=True`` each thread keeps both input reads of a
    block in flight concurrently (memory-level parallelism inside the
    kernel), which needs the windowed engine's batch-yield protocol.
    """

    name = "stream"
    description = "STREAM Triad bandwidth kernel (a = b + q*c)"
    accepts_sim = False
    param_domains = {
        **_COMMON,
        "blocks_per_thread": _POSITIVE,
        "block_bytes": frozenset((16, 32, 48, 64, 80, 96, 112, 128, 256)),
    }

    #: Array bases, 1 MiB apart, so stride-1 traffic sweeps
    #: vaults/banks the way the interleave intends.
    _BASES = (1 << 20, 2 << 20, 3 << 20)

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "blocks_per_thread": 8,
            "q": 3.0,
            "block_bytes": 64,
            "windowed": False,
            "max_cycles": 1_000_000,
        }

    def _inputs(self, params: Dict[str, Any]) -> Tuple[List[float], List[float]]:
        """The ``b`` and ``c`` vectors the run is preloaded with (kept:
        preloading and verifying one run would build them twice)."""
        n = (
            params["threads"]
            * params["blocks_per_thread"]
            * (params["block_bytes"] // 8)
        )
        kept = getattr(self, "_kept_inputs", None)
        if kept is None or len(kept[0]) != n:
            kept = self._kept_inputs = (
                [float(i % 97) for i in range(n)],
                [float((i * 7) % 31) for i in range(n)],
            )
        return kept

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        _, b_base, c_base = self._BASES
        b_vals, c_vals = self._inputs(params)
        sim.mem_write(b_base, struct.pack(f"<{len(b_vals)}d", *b_vals))
        sim.mem_write(c_base, struct.pack(f"<{len(c_vals)}d", *c_vals))

    def new_engine(self, sim: HMCSim, params: Dict[str, Any], fault_plan: Any):
        if not params["windowed"]:
            return super().new_engine(sim, params, fault_plan)
        return WindowedEngine(sim, window=2, max_cycles=params["max_cycles"])

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        program = (
            stream.windowed_triad_program
            if params["windowed"]
            else stream.stream_triad_program
        )
        a_base, b_base, c_base = self._BASES
        bpt = params["blocks_per_thread"]
        q, bb = params["q"], params["block_bytes"]
        return [
            lambda ctx, t=t: program(ctx, a_base, b_base, c_base, t * bpt, bpt, q, bb)
            for t in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        size = (
            params["threads"] * params["blocks_per_thread"] * params["block_bytes"]
        )
        return tuple((base, size) for base in self._BASES)

    def _max_abs_error(self, sim: HMCSim, params: Dict[str, Any]) -> float:
        """Largest deviation of ``a`` from the host-side triad."""
        b_vals, c_vals = self._inputs(params)
        n, q = len(b_vals), params["q"]
        got = struct.unpack(f"<{n}d", sim.mem_read(self._BASES[0], n * 8))
        # Lazy map()s over C functions: no frame and no list per element.
        want = map(operator.add, b_vals, map(operator.mul, repeat(q), c_vals))
        return max(map(abs, map(operator.sub, got, want)))

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return self._max_abs_error(sim, params) == 0.0

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        total_blocks = params["threads"] * params["blocks_per_thread"]
        bytes_moved = total_blocks * params["block_bytes"] * 3
        return stream.StreamStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            elements=total_blocks * (params["block_bytes"] // 8),
            cycles=result.total_cycles,
            bytes_moved=bytes_moved,
            bytes_per_cycle=bytes_moved / result.total_cycles,
            max_abs_error=self._max_abs_error(sim, params),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} STREAM Triad x{s.threads}: {s.cycles} cycles, "
            f"{s.bytes_per_cycle:.1f} B/cycle, err={s.max_abs_error}"
        )


@register_workload
class GUPSWorkload(KernelWorkload):
    """HPCC RandomAccess: XOR updates over a scattered table."""

    name = "gups"
    description = "HPCC RandomAccess (atomic XOR16 vs read-modify-write)"
    accepts_sim = False
    param_domains = {
        **_COMMON,
        "updates_per_thread": _POSITIVE,
        "table_entries": _POSITIVE,
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

    @staticmethod
    def _updates(params: Dict[str, Any]) -> List[int]:
        return gups.hpcc_random_stream(
            params["seed"], params["threads"] * params["updates_per_thread"]
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        upd = params["updates_per_thread"]
        updates = self._updates(params)
        entries, atomic = params["table_entries"], params["atomic"]
        return [
            lambda ctx, chunk=updates[t * upd : (t + 1) * upd]: gups.gups_program(
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
        ref = [0] * entries
        for r in self._updates(params):
            ref[r % entries] ^= r
        table = sim.mem_read(self._TABLE_BASE, entries * 16)
        # Every entry's low word, in one unpack.
        return list(struct.unpack(f"<{2 * entries}Q", table)[::2]) == ref

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        if not params["atomic"]:
            return None  # rmw mode tolerates lost updates by design
        return self._table_matches(sim, params)

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        updates = params["threads"] * params["updates_per_thread"]
        return gups.GUPSStats(
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

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [{"threads": threads, "atomic": atomic} for atomic in (False, True)]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} GUPS ({s.mode}) x{s.threads}: {s.cycles} cycles, "
            f"{s.updates_per_cycle:.3f} upd/cycle, verified={s.verified}"
        )


@register_workload
class HistogramWorkload(KernelWorkload):
    """Histogram binning: atomic INC8, posted P_INC8, or host rmw."""

    name = "hist"
    description = "histogram binning (atomic / posted / rmw increments)"
    accepts_sim = False
    param_domains = {
        **_COMMON,
        "samples_per_thread": _POSITIVE,
        "bins": _POSITIVE,
        "mode": frozenset(("atomic", "posted", "rmw")),
    }

    _BINS_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 16,
            "samples_per_thread": 32,
            "bins": 16,
            "mode": "atomic",
            "seed": 99,
            "max_cycles": 2_000_000,
        }

    @staticmethod
    def _samples(params: Dict[str, Any]) -> List[int]:
        return histogram.skewed_samples(
            params["seed"],
            params["threads"] * params["samples_per_thread"],
            params["bins"],
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        spt = params["samples_per_thread"]
        samples = self._samples(params)
        mode = params["mode"]
        return [
            lambda ctx, chunk=samples[t * spt : (t + 1) * spt]: histogram.hist_program(
                ctx, self._BINS_BASE, chunk, mode
            )
            for t in range(params["threads"])
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((self._BINS_BASE, params["bins"] * 16),)

    def finish(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if params["mode"] == "posted":
            # Posted increments may still be in flight when programs finish.
            sim.drain()

    def _lost_updates(self, sim: HMCSim, params: Dict[str, Any]) -> int:
        """Increments missing from the bins versus the sample stream."""
        ref = [0] * params["bins"]
        for s in self._samples(params):
            ref[s] += 1
        bins = sim.mem_read(self._BINS_BASE, params["bins"] * 16)
        return sum(ref[b] - _u64_at(bins, b) for b in range(params["bins"]))

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        if params["mode"] == "rmw":
            return None  # lost updates are the point of the rmw mode
        return self._lost_updates(sim, params) == 0

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        lost = self._lost_updates(sim, params)
        flits = _link_flits(sim)
        n = params["threads"] * params["samples_per_thread"]
        return histogram.HistogramStats(
            config_name=sim.config.describe(),
            mode=params["mode"],
            threads=params["threads"],
            samples=n,
            bins=params["bins"],
            cycles=result.total_cycles,
            requests=sum(t.requests for t in result.threads),
            flits=flits,
            flits_per_sample=flits / n,
            exact=lost == 0,
            lost_updates=lost,
        )

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [
            {"threads": threads, "mode": mode}
            for mode in ("rmw", "atomic", "posted")
        ]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} histogram ({s.mode}): {s.cycles} cycles, "
            f"{s.flits_per_sample:.1f} flits/sample, exact={s.exact}"
        )


@register_workload
class PointerChaseWorkload(KernelWorkload):
    """Serial pointer chase: latency per dependent hop."""

    name = "chase"
    description = "pointer-chase latency kernel (sequential or scattered)"
    accepts_sim = False
    cli_kernel = False  # has its own `chase` subcommand (single-thread)
    param_domains = {**_COMMON, "length": _POSITIVE, "base": _NON_NEGATIVE}

    def default_params(self) -> Dict[str, Any]:
        return {
            "length": 64,
            "scatter": False,
            "timing": False,
            "base": 1 << 20,
            "max_cycles": 1_000_000,
        }

    def new_sim(self, config: HMCConfig, params: Dict[str, Any]) -> HMCSim:
        return HMCSim(config, timing=DEFAULT_TIMING if params["timing"] else None)

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        self._head = pointer_chase.build_chain(
            sim, params["base"], params["length"], scatter=params["scatter"]
        )

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        head = getattr(self, "_head", params["base"])
        self._visited: List[int] = []
        visited = self._visited
        return [lambda ctx: pointer_chase.chase_program(ctx, head, visited)]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["base"], params["length"] * 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        visited = getattr(self, "_visited", None)
        if visited is None:
            return None
        return visited == list(range(params["length"]))

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return pointer_chase.PointerChaseStats(
            config_name=sim.config.describe(),
            length=params["length"],
            scattered=params["scatter"],
            timed=params["timing"],
            cycles=result.total_cycles,
            cycles_per_hop=result.total_cycles / params["length"],
            order_correct=self.verify(sim, params, result),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} pointer chase x{s.length} "
            f"({'scattered' if s.scattered else 'sequential'}"
            f"{', timed' if s.timed else ''}): {s.cycles} cycles, "
            f"{s.cycles_per_hop:.2f} cycles/hop, "
            f"order={'ok' if s.order_correct else 'BROKEN'}"
        )


@register_workload
class BarrierWorkload(KernelWorkload):
    """Sense-reversing barrier over the fadd64 CMC op."""

    name = "barrier"
    description = "sense-reversing barrier (CMC04 fadd64 arrival counter)"
    param_domains = {
        **_COMMON,
        "threads": (2, 2048),  # a barrier of one never waits
        "rounds": _POSITIVE,
        "addr": _NON_NEGATIVE,
    }

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 8,
            "rounds": 4,
            "addr": 0x0,
            "max_cycles": 2_000_000,
        }

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if sim.cmc.lookup(4) is None:
            sim.load_cmc("repro.cmc_ops.fadd64")
        sim.mem_write(params["addr"], bytes(16))

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        addr, threads, rounds = params["addr"], params["threads"], params["rounds"]
        self._log: List = []
        log = self._log
        return [
            lambda ctx: barrier.barrier_program(ctx, addr, threads, rounds, log)
            for _ in range(threads)
        ]

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        return ((params["addr"], 16),)

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        log = getattr(self, "_log", None)
        if log is None:
            return None
        return barrier.check_order(log, params["threads"], params["rounds"])

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        return barrier.BarrierStats(
            config_name=sim.config.describe(),
            threads=params["threads"],
            rounds=params["rounds"],
            total_cycles=result.total_cycles,
            cycles_per_round=result.total_cycles / params["rounds"],
            order_correct=self.verify(sim, params, result),
        )

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} barrier x{s.threads}: {s.rounds} rounds, "
            f"{s.total_cycles} cycles ({s.cycles_per_round:.1f}/round), "
            f"order={'ok' if s.order_correct else 'BROKEN'}"
        )


class WaveWorkload(KernelWorkload):
    """Shared shape of the level-synchronous kernels (BFS, SSSP): one
    engine wave per round on a context of their own, so neither
    recordable nor engine-drivable as a single :meth:`build`."""

    accepts_sim = False

    def build(self, sim: HMCSim, params: Dict[str, Any]) -> List[ProgramFactory]:
        raise WorkloadError(
            f"workload {self.name!r} is multi-phase (one engine per "
            f"round); drive it through run()"
        )

    def _wave(
        self,
        sim: HMCSim,
        params: Dict[str, Any],
        work: Sequence[Any],
        worker: Callable[..., Any],
    ) -> Tuple[int, List[int]]:
        """One engine run over ``work`` split into contiguous
        per-thread parts, each driven by ``worker(ctx, part, out)``.
        Returns the requests sent and the parts' outputs in tid order."""
        engine = self.new_engine(sim, params, None)
        outs: List[List[int]] = []
        chunk = (len(work) + params["threads"] - 1) // params["threads"]
        for lo in range(0, len(work), chunk):
            out: List[int] = []
            outs.append(out)
            engine.add_thread(
                lambda ctx, part=work[lo : lo + chunk], out=out: worker(ctx, part, out)
            )
        result = engine.run()
        return (
            sum(t.requests for t in result.threads),
            [v for out in outs for v in out],
        )


@register_workload
class BFSWorkload(WaveWorkload):
    """Level-synchronous BFS: one engine wave per frontier level."""

    name = "bfs"
    description = "level-synchronous BFS (CASEQ8 visited-marking vs rmw)"
    param_domains = {
        **_COMMON,
        "vertices": _POSITIVE,
        "degree": _NON_NEGATIVE,
        "root": _NON_NEGATIVE,
    }

    #: One 16-byte level slot per vertex.
    _LEVEL_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 8,
            "vertices": 256,
            "degree": 4,
            "cas": True,
            "root": 0,
            "seed": 12345,
            "max_cycles": 5_000_000,
        }

    @staticmethod
    def _edges(params: Dict[str, Any]) -> List[Tuple[int, int]]:
        return bfs.synthetic_graph(params["vertices"], params["degree"], params["seed"])

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        sim.mem_write(
            self._LEVEL_BASE + params["root"] * 16,
            (1).to_bytes(8, "little") + bytes(8),
        )

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        ref = bfs.reference_bfs_levels(
            params["vertices"], self._edges(params), params["root"]
        )
        return all(
            _u64_at(sim.mem_read(self._LEVEL_BASE + v * 16, 8), 0) == lvl
            for v, lvl in ref.items()
        )

    def run(self, config, params=None, *, sim=None, fault_plan=None, recorder=None):
        p = self.admit(params, sim, fault_plan, recorder)
        sim = self.new_sim(config, p)
        self.prepare(sim, p)
        edges = self._edges(p)
        adj = bfs.adjacency(edges)
        levels: Dict[int, int] = {p["root"]: 1}
        frontier = [p["root"]]
        depth = 1
        requests = 0
        start = sim.cycle
        while frontier:
            inspections = [
                (u, v) for u in frontier for v in adj.get(u, ()) if v not in levels
            ]
            if not inspections:
                break
            sent, claimed = self._wave(
                sim,
                p,
                inspections,
                lambda ctx, part, out: bfs.bfs_worker(
                    ctx, self._LEVEL_BASE, part, levels, out, p["cas"]
                ),
            )
            requests += sent
            depth += 1
            frontier = []
            for v in claimed:
                if v not in levels:
                    levels[v] = depth
                    frontier.append(v)
        return bfs.BFSStats(
            config_name=config.describe(),
            mode="cas" if p["cas"] else "baseline",
            vertices=p["vertices"],
            edges=len(edges),
            levels=max(levels.values()),
            cycles=sim.cycle - start,
            requests=requests,
            flits=_link_flits(sim),
            verified=self.verify(sim, p, None),
        )

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [{"threads": threads, "cas": cas} for cas in (False, True)]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} BFS ({s.mode}): {s.edges} edges, "
            f"{s.requests} requests, {s.flits} flits, verified={s.verified}"
        )


@register_workload
class SSSPWorkload(WaveWorkload):
    """Bellman-Ford-style SSSP: one engine wave per relaxation round."""

    name = "sssp"
    description = "single-source shortest paths (CMC07 amin64 vs rmw)"
    param_domains = {
        **_COMMON,
        "vertices": _POSITIVE,
        "degree": _NON_NEGATIVE,
        "source": _NON_NEGATIVE,
    }

    #: One 16-byte distance slot per vertex.
    _DIST_BASE = 1 << 20

    def default_params(self) -> Dict[str, Any]:
        return {
            "threads": 8,
            "vertices": 128,
            "degree": 3,
            "amin": True,
            "source": 0,
            "seed": 77,
            "max_cycles": 5_000_000,
        }

    @staticmethod
    def _edges(params: Dict[str, Any]) -> List[Tuple[int, int, int]]:
        return sssp.weighted_graph(params["vertices"], params["degree"], params["seed"])

    def _dist(self, sim: HMCSim, v: int) -> int:
        return _u64_at(sim.mem_read(self._DIST_BASE + v * 16, 8), 0)

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        if params["amin"] and sim.cmc.lookup(7) is None:
            sim.load_cmc("repro.cmc_ops.amin64")
        for v in range(params["vertices"]):
            init = 0 if v == params["source"] else sssp.INFINITY
            sim.mem_write(
                self._DIST_BASE + v * 16, init.to_bytes(8, "little") + bytes(8)
            )

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any):
        ref = sssp.reference_sssp(
            params["vertices"], self._edges(params), params["source"]
        )
        return all(
            self._dist(sim, v) == ref.get(v, sssp.INFINITY)
            for v in range(params["vertices"])
        )

    def run(self, config, params=None, *, sim=None, fault_plan=None, recorder=None):
        p = self.admit(params, sim, fault_plan, recorder)
        sim = self.new_sim(config, p)
        self.prepare(sim, p)
        edges = self._edges(p)
        adj = sssp.weighted_adjacency(edges)
        frontier = {p["source"]}
        rounds = requests = 0
        start = sim.cycle
        while frontier:
            rounds += 1
            # Gather this round's relaxations from current HMC
            # distances, pre-reduced per target vertex so each v is
            # touched by exactly one thread per round ("owner
            # computes") — keeping the baseline read-modify-write mode
            # race-free for a fair correctness comparison.
            best: Dict[int, int] = {}
            for u in frontier:
                du = self._dist(sim, u)
                for v, w in adj.get(u, ()):
                    if du + w < best.get(v, sssp.INFINITY):
                        best[v] = du + w
            if not best:
                break
            sent, improved = self._wave(
                sim,
                p,
                sorted(best.items()),
                lambda ctx, part, out: sssp.relax_worker(
                    ctx, self._DIST_BASE, part, out, p["amin"]
                ),
            )
            requests += sent
            frontier = set(improved)
        return sssp.SSSPStats(
            config_name=config.describe(),
            mode="amin" if p["amin"] else "baseline",
            vertices=p["vertices"],
            edges=len(edges),
            rounds=rounds,
            cycles=sim.cycle - start,
            requests=requests,
            verified=self.verify(sim, p, None),
        )

    def cli_variants(self, threads: int) -> List[Dict[str, Any]]:
        return [{"threads": threads, "amin": amin} for amin in (False, True)]

    def format_stats(self, s, fault_plan=None) -> str:
        return (
            f"{s.config_name} SSSP ({s.mode}): {s.edges} edges, "
            f"{s.rounds} rounds, {s.requests} requests, verified={s.verified}"
        )
