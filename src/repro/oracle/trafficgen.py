"""Seeded random traffic for differential testing.

A :class:`Trace` is a frozen, picklable description of one fuzz run:
the target configuration, the CMC modules to load, an optional fault
plan, a set of memory preloads, and an ordered request list.  Identical
``(seed, profile, count, config)`` inputs always produce an identical
trace.

**Ordering contract.**  The engine guarantees FIFO only per vault
queue; requests routed to different vaults complete in timing-dependent
order, and a multi-block request is routed whole to the vault of its
*base* address even though its footprint spans the vault-interleave
stride.  The oracle replays a single global order, so the differ must
serialize exactly the request pairs whose footprints overlap with at
least one writer.  Each request therefore carries its ``footprint`` and
``mutates`` flags (see :class:`TraceRequest`), computed here where the
CMC op geometry is known.  Memory traffic is additionally confined to a
small set of *clusters* — disjoint address windows, each pinned to one
link — which keeps conflicts local and fences rare; MODE (register)
traffic rides link 0, since the register file is device-global state.
Flow packets and out-of-capacity ("wild") addresses touch no state and
roam freely.

Each cluster reserves a linked-list arena for ``listpush`` (whose node
writes land at the bump address *read from memory*, so the arena must
live inside the cluster for the discipline to hold) and a preloaded
general region for everything else.
"""

from __future__ import annotations

import importlib
import pkgutil
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import repro.cmc_ops
from repro.core.cmc import CMCRegistry
from repro.core.loader import load_cmc as _load_cmc_plugin
from repro.core.template import EXECUTE_SYMBOL
from repro.hmc.commands import CMC_CODES, FLIT_BYTES, command_for_code, hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.packet import ADDR_MASK, MAX_TAG
from repro.hmc.registers import HMC_REG

__all__ = [
    "Trace",
    "TraceRequest",
    "TrafficProfile",
    "PROFILES",
    "CONFIGS",
    "generate_trace",
]

#: Named configurations a trace may target (kept to the two blessed
#: geometries so fixtures stay readable).
CONFIGS = {
    "4link_4gb": HMCConfig.cfg_4link_4gb,
    "8link_8gb": HMCConfig.cfg_8link_8gb,
}

_CLUSTER_BYTES = 8192
#: First half of a cluster: 16-byte list descriptor + bump arena.
_ARENA_BYTES = _CLUSTER_BYTES // 2
_GENERAL_BYTES = _CLUSTER_BYTES - _ARENA_BYTES
_NUM_CLUSTERS = 8

_READS = ("RD16", "RD32", "RD48", "RD64", "RD80", "RD96", "RD112", "RD128", "RD256")
_WRITES = ("WR16", "WR32", "WR48", "WR64", "WR80", "WR96", "WR112", "WR128", "WR256")
_POSTED_WRITES = (
    "P_WR16", "P_WR32", "P_WR48", "P_WR64", "P_WR80", "P_WR96", "P_WR112",
    "P_WR128", "P_WR256",
)
_ATOMICS = (
    "TWOADD8", "ADD16", "TWOADDS8R", "ADDS16R", "INC8", "XOR16", "OR16",
    "NOR16", "AND16", "NAND16", "CASGT8", "CASLT8", "CASGT16", "CASLT16",
    "CASEQ8", "CASZERO16", "EQ8", "EQ16", "SWAP16", "BWR", "BWR8R",
)
_POSTED_ATOMICS = ("P_2ADD8", "P_ADD16", "P_INC8", "P_BWR")
_FLOW = ("FLOW_NULL", "PRET", "TRET")

#: The one bundled op whose target depends on memory contents; it gets
#: the cluster arena discipline instead of a declared ``FOOTPRINT``.
_LISTPUSH = "hmc_list_push"


def _bundled_cmc_modules() -> Tuple[str, ...]:
    """Every ``repro.cmc_ops`` module defining the execute symbol, by
    command code — the op set the CMC-bearing profiles draw from."""
    ops = []
    for info in pkgutil.iter_modules(repro.cmc_ops.__path__, "repro.cmc_ops."):
        if hasattr(importlib.import_module(info.name), EXECUTE_SYMBOL):
            ops.append((_load_cmc_plugin(info.name).cmd, info.name))
    return tuple(name for _, name in sorted(ops))


_BUNDLED_CMC = _bundled_cmc_modules()


@dataclass(frozen=True)
class TrafficProfile:
    """Command-mix weights plus the CMC modules and faults to enable."""

    name: str
    weights: Tuple[Tuple[str, float], ...]
    cmc_modules: Tuple[str, ...] = ()
    fault_specs: Tuple[str, ...] = ()
    #: When nonzero, the weighted picks are separated by read-only
    #: bursts of up to this many requests (uniform in [burst/2, burst]).
    #: Reads never fence each other in the differ, so each burst piles
    #: hundreds of requests into the queues before the next weighted
    #: pick (usually a mutator) forces a drain — the deep-queue regime
    #: the columnar vault executor is pinned under.
    burst_reads: int = 0


_SPEC_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("read", 28),
    ("write", 18),
    ("posted_write", 9),
    ("atomic", 24),
    ("posted_atomic", 7),
    ("mode", 4),
    ("flow", 3),
    ("wild", 3),
    ("cmc_inactive", 2),
)

_MIXED_WEIGHTS = _SPEC_WEIGHTS + (("cmc", 26),)

#: The faulty profile's plan.  Vault stalls only delay execution and
#: corrected-only ECC flips leave read data intact (oracle-exact as
#: always); the response-destroying kinds — crossbar response drops
#: and duplicates, link CRC corruption — became differentially
#: testable when the runner learned to pair with a
#: :class:`~repro.faults.watchdog.TagWatchdog`: lost tags retransmit
#: (at-least-once, re-executed on both sides), duplicates are
#: suppressed against the settled answer, and CRC replays are
#: host-transparent link latency.  Only ``cmc_crash`` (which kills the
#: device) stays out, in the chaos suite.
_ORACLE_SAFE_FAULTS = (
    "vault_stall=0.05,duration=6",
    "dram_bitflip=0.1,uncorrectable=0",
    "xbar_drop=0.01",
    "xbar_dup=0.01",
    "link_crc=0.0005",
)

PROFILES: Dict[str, TrafficProfile] = {
    "spec": TrafficProfile(name="spec", weights=_SPEC_WEIGHTS),
    "mixed": TrafficProfile(
        name="mixed", weights=_MIXED_WEIGHTS, cmc_modules=_BUNDLED_CMC
    ),
    "cmc": TrafficProfile(
        name="cmc",
        weights=(
            ("read", 12),
            ("write", 8),
            ("atomic", 10),
            ("flow", 2),
            ("cmc_inactive", 3),
            ("cmc", 65),
        ),
        cmc_modules=_BUNDLED_CMC,
    ),
    "faulty": TrafficProfile(
        name="faulty",
        weights=_MIXED_WEIGHTS,
        cmc_modules=_BUNDLED_CMC,
        fault_specs=_ORACLE_SAFE_FAULTS,
    ),
    # Deep-queue shape: long read-only bursts (256+ outstanding between
    # fences) punctuated by weighted picks.  Atomics keep the columnar
    # AMO families hot at the fence boundaries; posted writes exercise
    # the no-response retire path under depth.
    "deep_queue": TrafficProfile(
        name="deep_queue",
        weights=(
            ("read", 30),
            ("atomic", 26),
            ("posted_atomic", 10),
            ("write", 12),
            ("posted_write", 10),
            ("mode", 4),
            ("wild", 4),
            ("flow", 4),
        ),
        burst_reads=384,
    ),
}


@dataclass(frozen=True)
class TraceRequest:
    """One request of a trace: command code, target, tag, link, payload."""

    cmd: int
    addr: int
    tag: int
    link: int
    data: bytes = b""
    #: Bytes of device state the request touches starting at ``addr``
    #: (0 for flow, wild, and inactive-CMC requests, which touch none).
    #: Two requests whose footprints overlap — and at least one of which
    #: ``mutates`` — have no guaranteed relative order in the engine
    #: unless serialized by the host, because multi-block footprints
    #: span the vault-interleave stride while the engine routes each
    #: request whole to ``vault_of(base)``.  The differ fences exactly
    #: those pairs; everything else runs concurrently.
    footprint: int = 0
    mutates: bool = False

    def describe(self) -> str:
        """One-line summary for mismatch reports and fixtures."""
        name = hmc_rqst_t(self.cmd).name
        return (
            f"{name} addr={self.addr:#x} tag={self.tag} link={self.link}"
            + (f" data[{len(self.data)}]" if self.data else "")
        )


@dataclass(frozen=True)
class Trace:
    """A complete, self-contained differential test case."""

    seed: int
    profile: str
    config_name: str
    cmc_modules: Tuple[str, ...]
    fault_specs: Tuple[str, ...]
    fault_seed: int
    preloads: Tuple[Tuple[int, bytes], ...]
    check_ranges: Tuple[Tuple[int, int], ...]
    requests: Tuple[TraceRequest, ...]

    def config(self) -> HMCConfig:
        """Build the trace's target configuration."""
        return CONFIGS[self.config_name]()


@dataclass(frozen=True)
class _Cluster:
    base: int
    link: int

    @property
    def desc_addr(self) -> int:
        return self.base

    @property
    def arena_base(self) -> int:
        return self.base + 16

    @property
    def general_base(self) -> int:
        return self.base + _ARENA_BYTES


def _cluster_bases(rng: random.Random, capacity: int) -> List[int]:
    """Disjoint cluster windows, stratified across the address space.

    Cluster 0 always sits flush against top-of-cube so every trace
    exercises capacity-boundary addresses.
    """
    bases = [capacity - _CLUSTER_BYTES]
    stride = capacity // _NUM_CLUSTERS
    for i in range(_NUM_CLUSTERS - 1):
        lo = i * stride
        hi = min((i + 1) * stride, capacity - _CLUSTER_BYTES) - _CLUSTER_BYTES
        slots = (hi - lo) // 256
        bases.append(lo + 256 * rng.randrange(slots))
    return bases


def generate_trace(
    seed: int,
    *,
    profile: Union[str, TrafficProfile] = "mixed",
    count: int = 256,
    config_name: str = "4link_4gb",
) -> Trace:
    """Generate one deterministic trace from a seed and a profile (a
    name in :data:`PROFILES`, or a profile object)."""
    if isinstance(profile, str) and profile not in PROFILES:
        raise ValueError(
            f"unknown traffic profile {profile!r} (have {sorted(PROFILES)})"
        )
    if not 1 <= count <= MAX_TAG + 1:
        raise ValueError(
            f"count {count} outside 1..{MAX_TAG + 1} (tags must stay unique "
            f"within a trace)"
        )
    prof = PROFILES[profile] if isinstance(profile, str) else profile
    if config_name not in CONFIGS:
        raise ValueError(
            f"unknown config {config_name!r} (have {sorted(CONFIGS)})"
        )
    config = CONFIGS[config_name]()
    capacity = config.capacity_bytes
    rng = random.Random(seed)

    # Load the profile's CMC modules into a throwaway registry so the
    # generator knows each op's payload length, code and footprint.
    registry = CMCRegistry()
    cmc_ops = []
    for module in prof.cmc_modules:
        op = _load_cmc_plugin(module)
        registry.register(op)
        fp = op.registration.footprint
        if op.op_name != _LISTPUSH and not (fp and fp <= _GENERAL_BYTES):
            raise ValueError(
                f"CMC op {op.op_name!r} declares no FOOTPRINT of 1.."
                f"{_GENERAL_BYTES} bytes (has {fp}), so the generator cannot "
                f"place it without racing other requests"
            )
        cmc_ops.append(op)
    registered_codes = {op.cmd for op in registry.operations()}
    inactive_codes = [c for c in CMC_CODES if c not in registered_codes]

    clusters = [
        _Cluster(base=b, link=rng.randrange(config.num_links))
        for b in _cluster_bases(rng, capacity)
    ]
    arena_slots = (_ARENA_BYTES - 16) // 16
    listpush_used = {c.base: 0 for c in clusters}

    preloads: List[Tuple[int, bytes]] = []
    for c in clusters:
        # List descriptor: empty list, bump allocator at the arena base.
        preloads.append(
            (c.desc_addr, bytes(8) + c.arena_base.to_bytes(8, "little"))
        )
        preloads.append((c.general_base, rng.randbytes(_GENERAL_BYTES)))

    categories = [name for name, _ in prof.weights]
    weights = [w for _, w in prof.weights]

    def general_addr(cluster: _Cluster, size: int, *, aligned: bool = True) -> int:
        span = _GENERAL_BYTES - size
        if aligned:
            return cluster.general_base + 16 * rng.randrange(span // 16 + 1)
        return cluster.general_base + rng.randrange(span + 1)

    requests: List[TraceRequest] = []
    burst_left = 0
    for idx in range(count):
        tag = idx % (MAX_TAG + 1)
        if prof.burst_reads and burst_left > 0:
            burst_left -= 1
            category = "read"
        else:
            category = rng.choices(categories, weights=weights)[0]
            if prof.burst_reads:
                burst_left = rng.randint(
                    prof.burst_reads // 2, prof.burst_reads
                )
        cluster = rng.choice(clusters)
        link = cluster.link

        if category == "read":
            rqst = hmc_rqst_t[rng.choice(_READS)]
            size = command_for_code(int(rqst)).rsp_data_bytes or 0
            addr = general_addr(cluster, size, aligned=rng.random() >= 0.2)
            data = b""
            footprint, mutates = size, False
        elif category == "write":
            rqst = hmc_rqst_t[rng.choice(_WRITES)]
            size = command_for_code(int(rqst)).rqst_data_bytes or 0
            addr = general_addr(cluster, size, aligned=rng.random() >= 0.2)
            data = rng.randbytes(size)
            footprint, mutates = size, True
        elif category == "posted_write":
            rqst = hmc_rqst_t[rng.choice(_POSTED_WRITES)]
            size = command_for_code(int(rqst)).rqst_data_bytes or 0
            addr = general_addr(cluster, size)
            data = rng.randbytes(size)
            footprint, mutates = size, True
        elif category in ("atomic", "posted_atomic"):
            pool = _ATOMICS if category == "atomic" else _POSTED_ATOMICS
            rqst = hmc_rqst_t[rng.choice(pool)]
            size = command_for_code(int(rqst)).rqst_data_bytes or 0
            addr = general_addr(cluster, 16)
            data = rng.randbytes(size)
            footprint, mutates = 16, True
        elif category == "mode":
            # Register state is device-global: all MODE traffic rides
            # link 0 so it stays totally ordered.
            link = 0
            if rng.random() < 0.2:
                reg = 0x1234  # unimplemented index → RSP_ERROR
            else:
                reg = rng.choice(sorted(HMC_REG.values()))
            if rng.random() < 0.5:
                rqst = hmc_rqst_t.MD_RD
                addr, data = reg, b""
                footprint, mutates = 8, False
            else:
                rqst = hmc_rqst_t.MD_WR
                addr, data = reg, rng.randbytes(16)
                footprint, mutates = 8, True
        elif category == "flow":
            rqst = hmc_rqst_t[rng.choice(_FLOW)]
            addr, data = 0, b""
            link = rng.randrange(config.num_links)
            footprint, mutates = 0, False
        elif category == "wild":
            # Out-of-capacity address: both sides must answer with
            # ERRSTAT address errors (or drop, when posted) without
            # touching memory.  No state → no ordering constraint.
            rqst = hmc_rqst_t[rng.choice(_READS + _WRITES + _POSTED_WRITES)]
            size = command_for_code(int(rqst)).rqst_data_bytes or 0
            addr = rng.randrange(capacity, ADDR_MASK + 1)
            data = rng.randbytes(size)
            link = rng.randrange(config.num_links)
            footprint, mutates = 0, False
        elif category == "cmc_inactive":
            code = rng.choice(inactive_codes)
            rqst = hmc_rqst_t(code)
            addr = general_addr(cluster, 16)
            data = b""
            footprint, mutates = 0, False
        else:  # "cmc"
            op = rng.choice(cmc_ops)
            size = (op.registration.rqst_len - 1) * FLIT_BYTES
            data = rng.randbytes(size)
            rqst = op.registration.rqst
            if op.op_name == _LISTPUSH:
                if listpush_used[cluster.base] >= arena_slots:
                    # Arena exhausted: a push would bump outside the
                    # cluster; degrade to a read of the descriptor.
                    rqst = hmc_rqst_t.RD16
                    addr, data = cluster.desc_addr, b""
                    footprint, mutates = 16, False
                else:
                    listpush_used[cluster.base] += 1
                    addr = cluster.desc_addr
                    # Touches the descriptor plus the bump arena, whose
                    # node address is read from memory at execute time.
                    footprint, mutates = _ARENA_BYTES, True
            else:
                footprint, mutates = op.registration.footprint, True
                addr = general_addr(cluster, footprint)

        requests.append(
            TraceRequest(
                cmd=int(rqst), addr=addr, tag=tag, link=link, data=data,
                footprint=footprint, mutates=mutates,
            )
        )

    return Trace(
        seed=seed,
        profile=prof.name,
        config_name=config_name,
        cmc_modules=prof.cmc_modules,
        fault_specs=prof.fault_specs,
        fault_seed=(seed * 0x9E3779B97F4A7C15) & ((1 << 64) - 1),
        preloads=tuple(preloads),
        check_ranges=tuple((c.base, _CLUSTER_BYTES) for c in clusters),
        requests=tuple(requests),
    )
