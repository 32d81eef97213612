"""The versioned workload-trace format (JSONL) and its converters.

A workload trace captures one host-engine run as data: a header line
describing how to reconstruct the starting state, then one line per
accepted request send.  Replay (:mod:`repro.workloads.replay`) drives
the same request stream back through the engine — closed-loop by
thread or open-loop at a fixed rate — and the differential oracle can
consume the same stream as a fuzz profile.

Format (``hmcsim-workload-trace``, version 1) — one JSON object per
line:

``{"format": "hmcsim-workload-trace", "version": 1, "config": ...,
"workload": ..., "params": {...}, "cmc": [...], "threads": [...],
"baseline": {...}}``
    The header.  ``workload``/``params`` name a registered frontend
    whose ``prepare`` reconstructs initial state; external traces may
    leave them null and carry explicit ``preload`` lines instead.
    ``cmc`` lists the plugin module paths that were loaded.
    ``threads`` records ``{"tid", "link", "cub"}`` per sending thread
    so replay reproduces the link assignment.  ``baseline`` (optional)
    records the originating run's per-thread completion cycles — the
    replay contract checked by ``repro trace replay``.

``{"type": "preload", "addr": ..., "data": "<hex>"}``
    Initial memory contents (external traces only; recorded traces
    reconstruct state through the workload registry).

``{"type": "rqst", "cycle": ..., "tid": ..., "cmd": "CMC125",
"addr": ..., "cub": 0, "data": "<hex>"}``
    One accepted request send, in global acceptance order.  ``cmd`` is
    the :class:`~repro.hmc.commands.hmc_rqst_t` member name; ``data``
    is the full request payload (CMC payloads are recorded padded to
    their registered length, so rebuilding the packet is exact).

Unknown *top-level* versions are rejected on load; unknown line types
are skipped (forward-compatible within a major version).

This module deliberately imports only :mod:`repro.hmc.commands` from
the simulator, so the oracle's trace profile can use it without
violating oracle purity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import WorkloadError
from repro.hmc.commands import hmc_rqst_t

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceThread",
    "TraceRecord",
    "WorkloadTrace",
    "read_trace_file",
    "trace_from_tracer",
]

TRACE_FORMAT = "hmcsim-workload-trace"
TRACE_VERSION = 1


def read_trace_file(path: Union[str, Path]) -> str:
    """A trace file's text; an unreadable file is refused input."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise WorkloadError(f"cannot read trace file {path}: {exc.strerror}") from None


@dataclass(frozen=True)
class TraceThread:
    """One sending thread of the recorded run."""

    tid: int
    link: int
    cub: int = 0


@dataclass(frozen=True)
class TraceRecord:
    """One accepted request send."""

    cycle: int
    tid: int
    cmd: str
    addr: int
    data: bytes = b""
    cub: int = 0

    def rqst(self) -> hmc_rqst_t:
        """The command enum member (raises on unknown names)."""
        try:
            return hmc_rqst_t[self.cmd]
        except KeyError:
            raise WorkloadError(
                f"trace names unknown command {self.cmd!r}"
            ) from None


@dataclass
class WorkloadTrace:
    """An in-memory workload trace (see the module docstring)."""

    config_name: Optional[str] = None
    workload: Optional[str] = None
    params: Dict = field(default_factory=dict)
    cmc_modules: Tuple[str, ...] = ()
    threads: Tuple[TraceThread, ...] = ()
    preloads: Tuple[Tuple[int, bytes], ...] = ()
    requests: Tuple[TraceRecord, ...] = ()
    #: Per-thread completion cycles of the originating run
    #: (``tid -> cycles``), empty when unknown.
    baseline_cycles: Dict[int, int] = field(default_factory=dict)

    # -- structure ------------------------------------------------------------

    def by_thread(self) -> Dict[int, List[TraceRecord]]:
        """Requests grouped by tid, preserving per-thread order."""
        grouped: Dict[int, List[TraceRecord]] = {}
        for rec in self.requests:
            grouped.setdefault(rec.tid, []).append(rec)
        return grouped

    # -- serialization --------------------------------------------------------

    def dumps(self) -> str:
        header = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "config": self.config_name,
            "workload": self.workload,
            "params": self.params,
            "cmc": list(self.cmc_modules),
            "threads": [
                {"tid": t.tid, "link": t.link, "cub": t.cub}
                for t in self.threads
            ],
        }
        if self.baseline_cycles:
            header["baseline"] = {
                str(tid): cyc for tid, cyc in sorted(self.baseline_cycles.items())
            }
        lines = [json.dumps(header, sort_keys=True)]
        for addr, data in self.preloads:
            lines.append(
                json.dumps(
                    {"type": "preload", "addr": addr, "data": data.hex()},
                    sort_keys=True,
                )
            )
        for rec in self.requests:
            lines.append(
                json.dumps(
                    {
                        "type": "rqst",
                        "cycle": rec.cycle,
                        "tid": rec.tid,
                        "cmd": rec.cmd,
                        "addr": rec.addr,
                        "cub": rec.cub,
                        "data": rec.data.hex(),
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    def dump(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.dumps())
        return path

    @classmethod
    def loads(cls, text: str) -> "WorkloadTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise WorkloadError("empty workload trace")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"bad trace header: {exc}") from None
        if header.get("format") != TRACE_FORMAT:
            raise WorkloadError(
                f"not a workload trace (format={header.get('format')!r}, "
                f"expected {TRACE_FORMAT!r})"
            )
        version = header.get("version")
        if not isinstance(version, int) or version > TRACE_VERSION:
            raise WorkloadError(
                f"workload trace version {version!r} is newer than this "
                f"reader (supports <= {TRACE_VERSION})"
            )
        threads = tuple(
            TraceThread(tid=t["tid"], link=t["link"], cub=t.get("cub", 0))
            for t in header.get("threads", [])
        )
        baseline = {
            int(tid): int(cyc)
            for tid, cyc in (header.get("baseline") or {}).items()
        }
        preloads: List[Tuple[int, bytes]] = []
        requests: List[TraceRecord] = []
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise WorkloadError(f"bad trace line {lineno}: {exc}") from None
            kind = obj.get("type")
            if kind == "preload":
                preloads.append((obj["addr"], bytes.fromhex(obj["data"])))
            elif kind == "rqst":
                requests.append(
                    TraceRecord(
                        cycle=obj["cycle"],
                        tid=obj["tid"],
                        cmd=obj["cmd"],
                        addr=obj["addr"],
                        data=bytes.fromhex(obj.get("data", "")),
                        cub=obj.get("cub", 0),
                    )
                )
            # Unknown line types are skipped (forward compatibility).
        return cls(
            config_name=header.get("config"),
            workload=header.get("workload"),
            params=header.get("params") or {},
            cmc_modules=tuple(header.get("cmc", [])),
            threads=threads,
            preloads=tuple(preloads),
            requests=tuple(requests),
            baseline_cycles=baseline,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkloadTrace":
        return cls.loads(read_trace_file(path))

    def digest(self) -> str:
        """A stable content digest (serialization is canonical)."""
        return hashlib.sha256(self.dumps().encode()).hexdigest()[:16]


# -- converter from the simulator's own Tracer output -------------------------

def trace_from_tracer(source: Union[str, Iterable[str]]) -> Tuple[WorkloadTrace, int]:
    """Convert rendered :class:`repro.hmc.trace.Tracer` output.

    The Tracer's ``CMD``-level ``RQST=`` events carry the command name
    and target address but no tag, payload, or issuing link — so the
    conversion is *lossy by design*: it yields an open-loop traffic
    trace (address/command stream) suitable for rate-driven replay and
    load studies, not a semantic re-execution.  CMC events are named by
    the plugin's ``cmc_str`` (e.g. ``hmc_lock``), which names no
    ``hmc_rqst_t`` member, so they are skipped.

    Returns ``(trace, skipped)`` where ``skipped`` counts request
    events whose command could not be resolved.
    """
    from repro.analysis.traceview import parse_trace

    records: List[TraceRecord] = []
    skipped = 0
    for event in parse_trace(source):
        if event.level != "CMD":
            continue
        op = event.get("RQST")
        if op is None:
            continue  # RSP events carry no request to replay
        if op not in hmc_rqst_t.__members__:
            skipped += 1
            continue
        addr = int(event.get("ADDR", "0"), 0)
        records.append(
            TraceRecord(cycle=event.cycle, tid=0, cmd=op, addr=addr)
        )
    return WorkloadTrace(requests=tuple(records)), skipped
