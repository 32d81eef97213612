"""Simulation checkpoint and restore.

Long simulations (the HMC-Sim user community runs kernels for millions
of cycles) benefit from snapshotting: capture the device-visible state
— memory image, registers, cycle counter, statistics — and later
restore it into a context built with the same configuration.

Scope: a checkpoint captures state while every *device* is quiesced
(no request or response inside a crossbar, vault queue, or retry
buffer) — generator-based host programs cannot be serialized, and
device-internal Flights carry live references.  Packets travelling
*between* cubes are different: the topology's delay lines hold plain
packets plus integer metadata, so a chained simulation can be
checkpointed mid-flight and the in-transit packets are rebuilt on
restore with their routing recomputed from the packet itself.  The CMC
registry is intentionally **not** serialized (plugins are code, not
state — reload them after restore), matching how the C simulator
would reload shared libraries in a new process.

The on-disk format is a versioned, self-describing pickle-free
structure written with :mod:`json` + raw page blobs, so checkpoints
remain inspectable; only the current version restores, an older file
is refused by name.  The configuration fingerprint includes the
component selection (a checkpoint taken under one pipeline composition
must not restore into another).  A vault scheduler's own state
(``round_robin``'s bank pointer) rides along per vault under the
optional ``vault_schedulers`` key.  Fault state rides along too — the
host's outstanding-tag set, the fault controller's counters and lost-tag set,
and (via ``watchdog=``) the watchdog's armed tags, deadlines and
attempt history — so a faulty run can checkpoint with a response
destroyed and mid-retransmission and resume bit-identically; fault
draws are stateless splitmix64 hashes of (seed, cycle, coordinates),
so no RNG state needs capturing.  So does the differential oracle:
pass the reference model via the duck-typed ``oracle=`` parameter (any
object with ``snapshot_state()``/``restore_state(doc)`` — this module
never imports :mod:`repro.oracle`, preserving the layering) and a
fuzz-farm burn-down can freeze mid-trace with the oracle's memory
image and register files captured alongside the device state.
"""

from __future__ import annotations

import base64
import heapq
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import HMCSimError
from repro.faults.watchdog import ArmedTag, TagWatchdog
from repro.fsutil import atomic_write_text
from repro.hmc.packet import RequestPacket, ResponsePacket
from repro.hmc.registers import HMC_REG
from repro.hmc.sim import HMCSim
from repro.hmc.topology import Topology

__all__ = ["save_checkpoint", "restore_checkpoint", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 4

#: Versions restore_checkpoint accepts.
_SUPPORTED_VERSIONS = (4,)


def _fingerprint_diff(
    want: Dict[str, object], got: Dict[str, object]
) -> str:
    """Name exactly the fingerprint fields that differ.

    The serve layer surfaces checkpoint rejections verbatim to remote
    clients, so "those two dicts differ somewhere" is not a usable
    diagnostic — the message must say *which* field diverged and what
    each side holds.
    """
    diffs = [
        f"{key}: checkpoint has {got.get(key, '<absent>')!r}, "
        f"target has {want.get(key, '<absent>')!r}"
        for key in sorted(set(want) | set(got))
        if want.get(key) != got.get(key)
    ]
    return "; ".join(diffs)


def _config_fingerprint(sim: HMCSim) -> Dict[str, object]:
    cfg = sim.config
    fp: Dict[str, object] = {
        "num_devs": cfg.num_devs,
        "num_links": cfg.num_links,
        "num_vaults": cfg.num_vaults,
        "num_banks": cfg.num_banks,
        "capacity": cfg.capacity,
        "queue_depth": cfg.queue_depth,
        "xbar_depth": cfg.xbar_depth,
        "bsize": cfg.bsize,
        "addr_interleave": cfg.addr_interleave,
    }
    # The pipeline composition is part of the fingerprint: restoring a
    # checkpoint into a context with a different crossbar, scheduler,
    # flow, topology, or memory model would silently change semantics.
    fp.update(cfg.component_selection())
    return fp


# -- packet (de)serialization --------------------------------------------------

_RQST_FIELDS = ("cmd", "tag", "addr", "cub", "rrp", "frp", "seq", "pb", "slid", "rtc")
_RSP_FIELDS = (
    "cmd",
    "tag",
    "cub",
    "slid",
    "rrp",
    "frp",
    "seq",
    "dinv",
    "errstat",
    "rtc",
    "retire_cycle",
    "inject_cycle",
    "origin_dev",
    "origin_link",
)


def _encode_rqst(pkt: RequestPacket) -> Dict[str, object]:
    doc: Dict[str, object] = {f: getattr(pkt, f) for f in _RQST_FIELDS}
    doc["data"] = base64.b64encode(pkt.data).decode("ascii")
    return doc


def _decode_rqst(doc: Dict[str, object]) -> RequestPacket:
    return RequestPacket(
        data=base64.b64decode(doc["data"]),
        **{f: doc[f] for f in _RQST_FIELDS},
    )


def _encode_rsp(rsp: ResponsePacket) -> Dict[str, object]:
    doc: Dict[str, object] = {f: getattr(rsp, f) for f in _RSP_FIELDS}
    doc["data"] = base64.b64encode(rsp.data).decode("ascii")
    return doc


def _decode_rsp(doc: Dict[str, object]) -> ResponsePacket:
    return ResponsePacket(
        data=base64.b64decode(doc["data"]),
        **{f: doc[f] for f in _RSP_FIELDS},
    )


# -- topology wire (de)serialization -------------------------------------------


def _encode_topology(sim: HMCSim) -> Dict[str, object]:
    topo = sim.topology
    doc: Dict[str, object] = {
        "forwarded_requests": getattr(topo, "forwarded_requests", 0),
        "forwarded_responses": getattr(topo, "forwarded_responses", 0),
        "rqst_wire": [],
        "rsp_wire": [],
    }
    if not isinstance(topo, Topology):
        # A third-party router's delay-line layout is unknown; only a
        # drained one can be captured.
        if topo.in_transit:
            raise HMCSimError(
                "cannot checkpoint in-transit packets of a custom topology "
                "router — call drain() first"
            )
        return doc
    doc["rqst_wire"] = [
        {
            "ready": ready,
            "dev": dev,
            "link": link,
            "pkt": _encode_rqst(flight.pkt),
            # Flight metadata that cannot be recomputed from the packet;
            # routing (vault/bank/quad/row) is rederived on restore.
            "src_link": flight.src_link,
            "inject_cycle": flight.inject_cycle,
            "hop_delay": flight.hop_delay,
            "origin_dev": flight.origin_dev,
            "link_seq": flight.link_seq,
            "service_until": flight.service_until,
        }
        for ready, dev, link, flight in topo._rqst_wire
    ]
    doc["rsp_wire"] = [
        {"ready": ready, "dev": dev, "rsp": _encode_rsp(rsp)}
        for ready, dev, rsp in topo._rsp_wire
    ]
    return doc


def _restore_topology(sim: HMCSim, doc: Dict[str, object]) -> None:
    topo = sim.topology
    if not isinstance(topo, Topology):
        if doc["rqst_wire"] or doc["rsp_wire"]:
            raise HMCSimError(
                "checkpoint holds in-transit packets but the target context "
                "uses a custom topology router that cannot receive them"
            )
        return
    # Routing constants are identical across same-config devices, so
    # any device can rebuild the Flight.
    router = sim.devices[0]
    rqst_wire: List = []
    for entry in doc["rqst_wire"]:
        flight = router.route_flight(
            _decode_rqst(entry["pkt"]),
            entry["src_link"],
            entry["inject_cycle"],
            hop_delay=entry["hop_delay"],
            origin_dev=entry["origin_dev"],
            link_seq=entry["link_seq"],
            service_until=entry["service_until"],
        )
        rqst_wire.append((entry["ready"], entry["dev"], entry["link"], flight))
    topo._rqst_wire = rqst_wire
    topo._rsp_wire = [
        (entry["ready"], entry["dev"], _decode_rsp(entry["rsp"]))
        for entry in doc["rsp_wire"]
    ]
    topo.forwarded_requests = doc["forwarded_requests"]
    topo.forwarded_responses = doc["forwarded_responses"]


# -- fault subsystem (de)serialization ------------------------------------------


def _encode_faults(sim: HMCSim) -> object:
    ctl = sim.faults
    if ctl is None:
        return None
    return {
        # The plan fingerprint: restoring fault state into a context
        # with different injectors (or a different seed, which drives
        # every stateless draw) would silently change the fault stream.
        "plan": ctl.plan.describe(),
        "seed": ctl.plan.seed,
        "counts": dict(sorted(ctl.counts.items())),
        "lost_tags": sorted(list(t) for t in ctl.lost_tags),
    }


def _restore_faults(sim: HMCSim, doc: object) -> None:
    ctl = sim.faults
    if doc is None:
        # Fault-free checkpoint: a fresh controller on the target side
        # keeps its empty state.
        return
    if ctl is None:
        raise HMCSimError(
            "checkpoint carries fault-controller state but the target "
            "context has no fault plan attached"
        )
    if (ctl.plan.describe(), ctl.plan.seed) != (doc["plan"], doc["seed"]):
        diffs = []
        if ctl.plan.describe() != doc["plan"]:
            diffs.append(
                f"plan: checkpoint has [{doc['plan']}], "
                f"target has [{ctl.plan.describe()}]"
            )
        if ctl.plan.seed != doc["seed"]:
            diffs.append(
                f"seed: checkpoint has {doc['seed']:#x}, "
                f"target has {ctl.plan.seed:#x}"
            )
        raise HMCSimError(
            "checkpoint fault plan does not match the target plan: "
            + "; ".join(diffs)
        )
    ctl.counts = dict(doc["counts"])
    ctl.lost_tags = {(cub, tag) for cub, tag in doc["lost_tags"]}


def _encode_watchdog(watchdog: TagWatchdog) -> Dict[str, object]:
    return {
        "timeout": watchdog.timeout,
        "max_retries": watchdog.max_retries,
        "backoff": watchdog.backoff,
        "serial": watchdog._serial,
        "timeouts": watchdog.timeouts,
        "retransmits": watchdog.retransmits,
        "attempts": sorted(watchdog._attempts.items()),
        "armed": [
            {
                "tag": e.tag,
                "packet": _encode_rqst(e.packet),
                "dev": e.dev,
                "link": e.link,
                "attempts": e.attempts,
                "deadline": e.deadline,
                "serial": e.serial,
            }
            for _tag, e in sorted(watchdog._armed.items())
        ],
    }


def _restore_watchdog(watchdog: TagWatchdog, doc: Dict[str, object]) -> None:
    params = (doc["timeout"], doc["max_retries"], doc["backoff"])
    have = (watchdog.timeout, watchdog.max_retries, watchdog.backoff)
    if params != have:
        raise HMCSimError(
            f"checkpoint watchdog parameters {params} do not match the "
            f"target watchdog {have}"
        )
    watchdog._serial = doc["serial"]
    watchdog.timeouts = doc["timeouts"]
    watchdog.retransmits = doc["retransmits"]
    watchdog._attempts = {tag: n for tag, n in doc["attempts"]}
    watchdog._armed = {}
    heap: List = []
    for entry in doc["armed"]:
        armed = ArmedTag(
            tag=entry["tag"],
            packet=_decode_rqst(entry["packet"]),
            dev=entry["dev"],
            link=entry["link"],
            attempts=entry["attempts"],
            deadline=entry["deadline"],
            serial=entry["serial"],
        )
        watchdog._armed[armed.tag] = armed
        heap.append((armed.deadline, armed.serial, armed.tag))
    # Stale heap entries (disarmed/re-armed) need not be reproduced:
    # lazy invalidation means the heap only has to cover live tags.
    heapq.heapify(heap)
    watchdog._heap = heap


def _check_devices_quiesced(sim: HMCSim, action: str) -> None:
    """Devices (and the link layer) must hold nothing; packets on the
    inter-cube wire are fine — they serialize."""
    for device in sim.devices:
        if device.busy():
            raise HMCSimError(
                f"cannot {action} with packets in flight inside a device — "
                "call drain() first"
            )
    flow = sim.flow
    if flow is not None and flow.has_pending_replays():
        raise HMCSimError(
            f"cannot {action} with link replays in flight — call drain() first"
        )


def save_checkpoint(
    sim: HMCSim,
    path: Union[str, Path],
    *,
    watchdog: Optional[TagWatchdog] = None,
    oracle: Optional[object] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Write a checkpoint of a device-quiesced context (atomic replace).

    Packets in transit between cubes are captured; packets inside a
    device are not serializable.  A device-quiesced context may still
    owe responses — a fault destroyed them and the watchdog is waiting
    to retransmit — so the host's outstanding-tag set, the fault
    controller's counters and lost tags, and (when ``watchdog`` is
    passed) the watchdog's armed state are all captured.  Pass a
    differential reference model via ``oracle=`` (anything with a
    ``snapshot_state()`` method) to embed its memory image and
    registers as well.  ``meta`` is an opaque caller label stored in
    the same file and handed back by :func:`restore_checkpoint`, so a
    snapshot and what the caller knows about it land in one replace.

    Raises:
        HMCSimError: if any device holds packets in flight (drain first).
    """
    _check_devices_quiesced(sim, "checkpoint")
    pages = [
        {"base": base_addr, "data": base64.b64encode(content).decode("ascii")}
        for base_addr, content in sim.backend.iter_resident()
    ]
    registers = [dev.registers.snapshot() for dev in sim.devices]
    # CMC operations: code is never serialized, but the *identity* of
    # each loaded plugin (its importable source) and its execution
    # counter are — so a restored context reports the same cumulative
    # cmc_executions a warm uninterrupted context would.
    cmc_ops = [
        {"source": op.source, "cmd": op.cmd, "executions": op.executions}
        for op in sim.cmc.operations()
    ]
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": _config_fingerprint(sim),
        "cycle": sim.cycle,
        "counters": {
            "sent_rqsts": sim.sent_rqsts,
            "send_stalls": sim.send_stalls,
            "recvd_rsps": sim.recvd_rsps,
        },
        "pages": pages,
        "registers": registers,
        "topology": _encode_topology(sim),
        "outstanding": sorted(sim._outstanding),
        "cmc": cmc_ops,
        "faults": _encode_faults(sim),
        "watchdog": None if watchdog is None else _encode_watchdog(watchdog),
        "oracle": None if oracle is None else oracle.snapshot_state(),
        # Optional on restore: a file without it (written before the
        # key existed) leaves every scheduler in its initial state.
        "vault_schedulers": [
            [vault.scheduler.snapshot_state() for vault in dev.vaults]
            for dev in sim.devices
        ],
    }
    if meta is not None:
        doc["meta"] = meta
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(p, json.dumps(doc))
    return p


def restore_checkpoint(
    sim: HMCSim,
    path: Union[str, Path],
    *,
    watchdog: Optional[TagWatchdog] = None,
    oracle: Optional[object] = None,
) -> Optional[Dict[str, object]]:
    """Load a checkpoint into a freshly built context.

    Returns the ``meta`` label the checkpoint was saved with (``None``
    when it carries none).

    The target context must have an equivalent configuration —
    including the same component selection for every pipeline seam,
    and the same fault plan when the checkpoint carries fault state.
    CMC plugins recorded with an importable source are re-loaded
    automatically (with their execution counters restored); inline
    registrations must be re-registered by the caller *before*
    restoring, and checkpoints from before the ``cmc`` capture leave
    plugin reloading to the caller entirely.  When
    the checkpoint holds watchdog state, pass the (identically
    parameterized) target watchdog via ``watchdog=``; when it holds an
    oracle document, pass the target reference model (anything with
    ``restore_state(doc)``) via ``oracle=``.

    Raises:
        HMCSimError: version, configuration, fault-plan, or watchdog
            mismatch, or a non-idle target context.
    """
    _check_devices_quiesced(sim, "restore")
    if sim.topology.in_transit:
        raise HMCSimError(
            "cannot restore into a context with packets in flight between cubes"
        )
    doc = json.loads(Path(path).read_text())
    if doc.get("version") not in _SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in _SUPPORTED_VERSIONS)
        raise HMCSimError(
            f"checkpoint {Path(path).name} has version {doc.get('version')!r}, "
            f"which this build does not support (supported versions: "
            f"{supported}; current save version: {CHECKPOINT_VERSION})"
        )
    want = _config_fingerprint(sim)
    if doc["config"] != want:
        raise HMCSimError(
            "checkpoint configuration does not match the target context: "
            + _fingerprint_diff(want, doc["config"])
        )
    sim.backend.clear()
    for page in doc["pages"]:
        sim.backend.write(page["base"], base64.b64decode(page["data"]))
    for dev, snapshot in zip(sim.devices, doc["registers"]):
        for name, value in snapshot.items():
            if name in ("FEAT", "RVID"):
                continue  # read-only; derived from the configuration
            dev.registers.write(HMC_REG[name], value)
    sim._cycle = doc["cycle"]
    counters = doc["counters"]
    sim.sent_rqsts = counters["sent_rqsts"]
    sim.send_stalls = counters["send_stalls"]
    sim.recvd_rsps = counters["recvd_rsps"]
    _restore_topology(sim, doc["topology"])
    for dev, states in zip(sim.devices, doc.get("vault_schedulers", ())):
        for vault, state in zip(dev.vaults, states):
            vault.scheduler.restore_state(state)
    sim._outstanding = set(doc["outstanding"])
    for entry in doc.get("cmc", ()):
        op = sim.cmc.lookup(entry["cmd"])
        if op is None:
            if entry["source"] == "<inline>":
                raise HMCSimError(
                    f"checkpoint carries CMC operation for command code "
                    f"{entry['cmd']} registered inline — re-register it "
                    f"on the target context before restoring"
                )
            sim.load_cmc(entry["source"])
            op = sim.cmc.get(entry["cmd"])
        op.executions = entry["executions"]
    _restore_faults(sim, doc["faults"])
    wd_doc = doc["watchdog"]
    if wd_doc is not None:
        if watchdog is None:
            raise HMCSimError(
                "checkpoint carries watchdog state — pass the target "
                "watchdog via watchdog="
            )
        _restore_watchdog(watchdog, wd_doc)
    oracle_doc = doc["oracle"]
    if oracle_doc is not None:
        if oracle is None:
            raise HMCSimError(
                "checkpoint carries oracle state — pass the target "
                "reference model via oracle="
            )
        oracle.restore_state(oracle_doc)
    return doc.get("meta")
