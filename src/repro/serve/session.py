"""Warm simulator sessions with journaled, checkpoint-fenced execution.

A :class:`SimSession` owns one long-lived :class:`~repro.hmc.sim.HMCSim`
and executes submissions against it **serially, as fenced segments**:
run → ``sim.drain()`` → checkpoint.  The fence discipline is what makes
restart exact — generator-based thread programs cannot be serialized
mid-flight, but a *quiesced* device checkpoints completely
(checkpoint v4), and the simulator is deterministic, so:

    restore last checkpoint + re-execute the journaled submissions
    after it  ==  the uninterrupted run, bit for bit.

The session directory is the durable record::

    <root>/<name>/
        meta.json        O(1) header (identity, state): create/drain/close
        journal.jsonl    append-only: a line per accept, a line per completion
        checkpoint.json  the last fence (every ``checkpoint_every``
                         submissions, and whenever the journal drains)
                         with its label ``checkpointed_through``
        result-<seq>.json  canonical result payload per submission

No write grows with the session.  The accept line is flushed *before*
the ack (acked work survives a process kill; no ``fsync``, so not a
power loss), the result file is replaced before its ``done`` line is
appended, and snapshot + label land in one ``os.replace``.  :meth:`load`
folds the journal (last status line per seq wins; a torn final line was
never acked and is dropped) and replays everything after the label —
including submissions marked done whose effects the checkpoint
predates; re-execution regenerates byte-identical results.  See
``docs/SERVICE.md``.

:meth:`execute_next` never raises and advances the head exactly once.
An error in the segment or the result write fails that submission; an
error after its status line (the append itself or the checkpoint)
leaves the status standing with an older fence label — the "after
``done``, before the checkpoint" kill — which :meth:`snapshot` shows as
``checkpointed_through`` behind ``done``.

A session holds no lock: one thread at a time drives it.  The server
gives each session one owner thread that alone creates or loads it and
calls every method below.

States move ``CREATED → RUNNING → DRAINING → CLOSED``: RUNNING on the
first submission, DRAINING once the server stops accepting new work
(SIGTERM or ``close``), CLOSED after the final fence.

Submission kinds (validated in :mod:`repro.serve.schemas`):

``workload``
    ``{"workload": name, "params": {...}}`` — resolved through
    :data:`~repro.workloads.registry.WORKLOADS` *by string only* (the
    workload-containment discipline), run on the warm sim.
``raw``
    ``{"requests": [{"cmd", "addr", "data"?, "link"?}, ...]}`` — a
    pipelined request stream driven directly; per-request responses
    come back in issue order.
``sweep``
    ``{"workload": name, "threads": [...]}`` — fanned over the shared
    :class:`~repro.parallel.pool.SweepExecutor`; never touches the
    session sim, and the on-disk cache dedups identical points across
    every session and client.
"""

from __future__ import annotations

import base64
import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional

from repro.errors import HMCSimError, ServeError, WorkloadError
from repro.fsutil import atomic_write_text
from repro.hmc.packet import MAX_TAG
from repro.serve.schemas import canonical_json, encode_value

__all__ = ["SessionState", "SubmissionRecord", "SimSession", "build_session_config"]

_META_VERSION = 2
#: Cycle budget of a raw stream whose spec names none.
_RAW_MAX_CYCLES = 100_000


class SessionState(enum.Enum):
    """Lifecycle of one warm session."""

    CREATED = "created"
    RUNNING = "running"
    DRAINING = "draining"
    CLOSED = "closed"


@dataclass
class SubmissionRecord:
    """One journaled submission."""

    seq: int
    kind: str
    spec: Dict[str, Any]
    status: str = "pending"  # pending | done | failed
    error: Optional[str] = None


def build_session_config(config_name: str, components: Dict[str, str]):
    """An :class:`~repro.hmc.config.HMCConfig` for a ``create`` request.

    Component overrides are validated against the registry up front so
    a bad seam/impl is a structured ``bad_request`` refusal, not a
    session that dies on first submit.
    """
    from repro.hmc.config import resolve_config

    try:
        return resolve_config(config_name, components)
    except HMCSimError as exc:  # HMCConfigError
        raise ServeError("bad_request", str(exc)) from None


def _accept_line(rec: SubmissionRecord) -> str:
    doc = {"seq": rec.seq, "kind": rec.kind, "spec": rec.spec}
    return json.dumps(doc, sort_keys=True) + "\n"


def _status_line(rec: SubmissionRecord) -> str:
    doc = {"seq": rec.seq, "status": rec.status, "error": rec.error}
    return json.dumps(doc, sort_keys=True) + "\n"


def _read_journal(path: Path) -> List[SubmissionRecord]:
    """Fold ``journal.jsonl`` into records; the last status per seq wins."""
    if not path.exists():  # nothing accepted yet
        return []
    lines = path.read_text().split("\n")
    # What follows the last newline is empty or a torn write, and a
    # torn line was never acked.  A bad line anywhere else is damage.
    lines.pop()
    records: List[SubmissionRecord] = []
    for number, line in enumerate(lines, 1):
        try:
            doc = json.loads(line)
            if "kind" in doc:
                if doc["seq"] != len(records) + 1:
                    raise ValueError(f"seq {doc['seq']} out of order")
                records.append(SubmissionRecord(doc["seq"], doc["kind"], doc["spec"]))
            else:
                rec = records[doc["seq"] - 1]
                if rec.seq != doc["seq"]:
                    raise ValueError(f"status for unknown seq {doc['seq']}")
                rec.status, rec.error = doc["status"], doc["error"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ServeError(
                "internal", f"{path.name} line {number} is corrupt: {exc}"
            ) from None
    return records


class SimSession:
    """One warm simulator with a durable submission journal.

    Args:
        name: session name (also the directory name under ``root``).
        config_name: named device configuration.
        components: ``{seam: impl}`` pipeline overrides.
        root: parent directory for the session directory.
        checkpoint_every: fence (drain + checkpoint) after every N-th
            completed submission and whenever none is left pending, so
            a client that waits on each submission fences each one.
        sweep_runner: ``(specs) -> results`` callable for sweep
            submissions; the server injects one bound to the shared
            executor + disk cache.  ``None`` runs them in-process.
    """

    def __init__(
        self,
        name: str,
        config_name: str,
        components: Optional[Dict[str, str]] = None,
        *,
        root: Path,
        checkpoint_every: int = 1,
        sweep_runner: Optional[Callable[[List[Any]], List[Any]]] = None,
    ) -> None:
        self.name = name
        self.config_name = config_name
        self.components = dict(components or {})
        self.root = Path(root) / name
        self.checkpoint_every = max(1, checkpoint_every)
        self.sweep_runner = sweep_runner
        self.state = SessionState.CREATED
        self.submissions: List[SubmissionRecord] = []
        self.checkpointed_through = 0
        self.resumed = False
        self._init_journal(executed=0)

        self.config = build_session_config(config_name, self.components)
        from repro.hmc.sim import HMCSim

        self.sim = HMCSim(self.config)
        self.root.mkdir(parents=True, exist_ok=False)
        self._persist_meta()

    # -- durability -----------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    @property
    def checkpoint_path(self) -> Path:
        return self.root / "checkpoint.json"

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    def result_path(self, seq: int) -> Path:
        return self.root / f"result-{seq}.json"

    def _init_journal(self, executed: int) -> None:
        # Segments run serially in seq order: ``submissions[:_executed]``
        # are finished, the rest pending — no scan per submission.
        self._executed = executed
        self._failed = sum(r.status == "failed" for r in self.submissions[:executed])
        self._journal: Optional[IO[str]] = None  # opened by the first append

    def _persist_meta(self) -> None:
        """The O(1) header; the journal never passes through here."""
        doc = {
            "meta_version": _META_VERSION,
            "name": self.name,
            "config": self.config_name,
            "components": self.components,
            "state": self.state.value,
        }
        atomic_write_text(self.meta_path, json.dumps(doc, sort_keys=True, indent=1))

    def _append_journal(self, line: str) -> None:
        """One line, through the one handle, flushed."""
        if self._journal is None:
            self._journal = open(self.journal_path, "a")
        self._journal.write(line)
        self._journal.flush()

    @classmethod
    def load(
        cls,
        session_dir: Path,
        *,
        checkpoint_every: int = 1,
        sweep_runner: Optional[Callable[[List[Any]], List[Any]]] = None,
    ) -> "SimSession":
        """Rebuild a session from its directory.

        Restores the last checkpoint (when one exists) and rewinds the
        journal so every submission after the checkpoint's label —
        finished or not — is pending again; the server re-executes them
        in order, regenerating byte-identical results.  Ends with the
        one compacting rewrite of journal and header.

        Raises:
            ServeError: ``internal`` — header, journal or checkpoint is
                missing, unreadable or inconsistent.
        """
        from repro.hmc.checkpoint import restore_checkpoint
        from repro.hmc.sim import HMCSim

        self = cls.__new__(cls)
        self.root = Path(session_dir)
        self.checkpoint_every = max(1, checkpoint_every)
        self.sweep_runner = sweep_runner
        self.resumed = True
        try:
            doc = json.loads(self.meta_path.read_text())
            version = doc.get("meta_version")
            if version != _META_VERSION:
                raise ValueError(f"meta_version {version!r}, only {_META_VERSION} is read")
            self.name = doc["name"]
            self.config_name = doc["config"]
            self.components = dict(doc["components"])
            self.submissions = _read_journal(self.journal_path)
            self.config = build_session_config(self.config_name, self.components)
            self.sim = HMCSim(self.config)
            through = 0
            if self.checkpoint_path.exists():
                label = restore_checkpoint(self.sim, self.checkpoint_path)
                through = int(label["checkpointed_through"])
            if any(r.status == "pending" for r in self.submissions[:through]) or (
                through > len(self.submissions)
            ):
                raise ValueError(f"journal ends before the fence at seq {through}")
        except (OSError, ValueError, KeyError, TypeError, HMCSimError) as exc:
            raise ServeError(
                "internal", f"cannot load session at {self.root}: {exc}"
            ) from None
        # Everything past the last fence re-executes (deterministically
        # identical), including submissions that finished — or failed,
        # leaving partial side effects — whose effects the checkpoint
        # predates.
        for rec in self.submissions[through:]:
            rec.status, rec.error = "pending", None
        self._init_journal(executed=through)
        self.checkpointed_through = through
        if doc["state"] == SessionState.CLOSED.value and not self.pending():
            self.state = SessionState.CLOSED
        elif self.submissions:
            self.state = SessionState.RUNNING
        else:
            self.state = SessionState.CREATED
        atomic_write_text(
            self.journal_path,
            "".join(
                _accept_line(rec) + (_status_line(rec) if rec.status != "pending" else "")
                for rec in self.submissions
            ),
        )
        self._persist_meta()
        return self

    # -- the journal ----------------------------------------------------------

    def accept(self, kind: str, spec: Dict[str, Any]) -> int:
        """Journal one submission; returns its sequence number.

        The journal write happens *before* execution: once a client has
        its ack, the work survives a server kill.
        """
        if self.state in (SessionState.DRAINING, SessionState.CLOSED):
            raise ServeError(
                "draining",
                f"session {self.name!r} is {self.state.value} and not "
                f"accepting submissions",
            )
        self._validate_spec(kind, spec)
        rec = SubmissionRecord(len(self.submissions) + 1, kind, spec)
        self._append_journal(_accept_line(rec))
        self.submissions.append(rec)
        return rec.seq

    def pending(self) -> List[SubmissionRecord]:
        return self.submissions[self._executed :]

    def _validate_spec(self, kind: str, spec: Dict[str, Any]) -> None:
        from repro.workloads.registry import WORKLOADS

        if kind in ("workload", "sweep"):
            try:
                frontend = WORKLOADS.get(spec.get("workload"))
            except WorkloadError as exc:
                raise ServeError("bad_request", str(exc)) from None
        if kind == "workload":
            if not isinstance(spec.get("params", {}), dict):
                raise ServeError("bad_request", "'params' must be an object")
            try:
                frontend.resolve_params(spec.get("params"))
            except WorkloadError as exc:
                raise ServeError("bad_request", str(exc)) from None
        elif kind == "raw":
            requests = spec.get("requests")
            if not isinstance(requests, list) or not requests:
                raise ServeError(
                    "bad_request", "'requests' must be a non-empty list"
                )
            max_cycles = spec.get("max_cycles", _RAW_MAX_CYCLES)
            if not isinstance(max_cycles, int) or max_cycles <= 0:
                raise ServeError(
                    "bad_request", "'max_cycles' must be a positive integer"
                )
            from repro.hmc.commands import FLIT_BYTES, hmc_rqst_t
            from repro.hmc.packet import RequestPacket

            for i, rq in enumerate(requests):
                if not isinstance(rq, dict):
                    raise ServeError("bad_request", f"request {i} must be an object")
                cmd, data = rq.get("cmd"), rq.get("data") or ""
                try:
                    if not isinstance(cmd, str) or cmd not in hmc_rqst_t.__members__:
                        raise ValueError(f"unknown command {cmd!r}")
                    if not isinstance(rq.get("addr"), int):
                        raise ValueError("'addr' must be an integer")
                    if not isinstance(rq.get("link", 0), int):
                        raise ValueError("'link' must be an integer")
                    if not isinstance(data, str):
                        raise ValueError("'data' must be a hex string")
                    payload = bytes.fromhex(data)
                    # The builder _run_raw uses.  A specification command
                    # takes its length from Table I; a CMC code takes it
                    # from a registration an earlier queued submission
                    # may still have to load, so there the line decides
                    # only whether any packet can carry the payload.
                    flits = 1 + -(-len(payload) // FLIT_BYTES)
                    RequestPacket.build(
                        hmc_rqst_t[cmd], rq["addr"], 0, data=payload, rqst_flits=flits
                    )
                except ValueError as exc:  # HMCPacketError is one
                    raise ServeError("bad_request", f"request {i}: {exc}") from None
        elif kind == "sweep":
            if not hasattr(frontend, "task_spec"):
                raise ServeError(
                    "bad_request",
                    f"workload {frontend.name!r} cannot be swept (no task_spec)",
                )
            threads = spec.get("threads")
            if (
                not isinstance(threads, list)
                or not threads
                or not all(isinstance(t, int) and t > 0 for t in threads)
            ):
                raise ServeError(
                    "bad_request",
                    "'threads' must be a non-empty list of positive integers",
                )
        else:  # pragma: no cover - schemas rejects unknown kinds first
            raise ServeError("bad_request", f"unknown submission kind {kind!r}")

    # -- execution ------------------------------------------------------------

    def execute_next(self) -> Optional[SubmissionRecord]:
        """Run the oldest pending submission as one fenced segment.

        Returns the finished record (status ``done``/``failed``) or
        ``None`` when nothing is pending; never raises.  Simulation
        errors fail the *submission*, not the session: the sim is
        drained and fenced so later submissions start from a quiesced,
        checkpointed state.
        """
        if self._executed == len(self.submissions):
            return None
        rec = self.submissions[self._executed]
        if self.state == SessionState.CREATED:
            self.state = SessionState.RUNNING
        error: Optional[str] = None
        try:
            if rec.kind == "workload":
                payload = self._run_workload(rec.spec)
            elif rec.kind == "raw":
                payload = self._run_raw(rec.spec)
            else:
                payload = self._run_sweep(rec.spec)
        except Exception as exc:  # noqa: BLE001 - fault barrier: any
            # schema-valid submission can still blow up in workload
            # code (e.g. task_spec(**params) with an unknown key raises
            # TypeError); an escape here would wedge the session on a
            # permanently-pending record.
            error = f"{type(exc).__name__}: {exc}"
        # The fence: quiesce, persist the result, advance the journal,
        # checkpoint.  Order matters — the result file must exist
        # before the journal marks the submission done, and the done
        # line before a checkpoint labelled with its seq.
        try:
            self.sim.drain()
            self._reap_orphans()
            if error is None:
                atomic_write_text(self.result_path(rec.seq), canonical_json(payload))
        except Exception as exc:  # noqa: BLE001 - the record carries it
            error = error or f"{type(exc).__name__}: {exc}"
        rec.status, rec.error = ("failed", error) if error else ("done", None)
        self._executed += 1
        self._failed += error is not None
        try:
            self._append_journal(_status_line(rec))
            if rec.seq % self.checkpoint_every == 0 or rec.seq == len(self.submissions):
                self._save_fence()
        except Exception:  # noqa: BLE001 - the status stands, the label lags
            pass
        return rec

    def _reap_orphans(self) -> None:
        """Receive-and-discard responses nobody claimed.

        A failed segment (e.g. a deadlocked workload) leaves its
        threads' in-flight responses in the retire buffers with their
        tags still outstanding; unclaimed they would poison the next
        submission with spurious tag collisions.  After a successful
        segment this is a no-op.
        """
        for link in range(self.sim.config.num_links):
            while self.sim.recv_batch(link=link):
                pass

    def _save_fence(self) -> None:
        """Snapshot the quiesced sim — it holds exactly
        ``submissions[:_executed]`` — with that label in the same file."""
        from repro.hmc.checkpoint import save_checkpoint

        save_checkpoint(
            self.sim,
            self.checkpoint_path,
            meta={"checkpointed_through": self._executed},
        )
        self.checkpointed_through = self._executed

    def load_result(self, seq: int) -> Optional[Any]:
        """The stored canonical payload for submission ``seq`` (or None)."""
        path = self.result_path(seq)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- submission kinds -----------------------------------------------------

    def _run_workload(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        from repro.workloads.registry import WORKLOADS

        name = spec["workload"]
        frontend = WORKLOADS.get(name)
        # Warm path: device state accumulates across submissions.
        # Frontends that must build their own context (multi-phase
        # kernels, trace replay) run cold; still deterministic, so
        # journal replay regenerates identical results.
        stats = frontend.run(
            self.config,
            spec.get("params"),
            sim=self.sim if frontend.accepts_sim else None,
        )
        return {
            "workload": name,
            "warm": frontend.accepts_sim,
            "fingerprint": WORKLOADS.fingerprint(name),
            "stats": encode_value(stats),
        }

    def _run_raw(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Drive a pipelined request stream on the warm sim.

        :func:`~repro.host.openloop.drive_open_loop` issues the requests
        in order, as deep as the tag space allows, then drains; responses
        are matched back to issue order by tag.  A stream that needs
        more than ``max_cycles`` cycles fails.
        """
        from repro.hmc.commands import hmc_rqst_t
        from repro.host.openloop import OpenLoopStats, drive_open_loop

        sim = self.sim
        requests = spec["requests"]
        max_cycles = int(spec.get("max_cycles", _RAW_MAX_CYCLES))
        deadline = sim.cycle + max_cycles
        over = ServeError("internal", f"raw stream exceeded max_cycles ({max_cycles})")
        index_of: Dict[int, int] = {}  # tag -> the request it was last leased to
        # A posted request keeps its entry: nothing answers it.
        responses = [dict(index=i, data="", cycle=-1) for i in range(len(requests))]

        def build(idx: int, tag: int) -> Any:
            rq = requests[idx]
            index_of[tag] = idx
            cmd, data = hmc_rqst_t[rq["cmd"]], bytes.fromhex(rq.get("data") or "")
            return sim.build_memrequest(cmd, rq["addr"], tag, data=data)

        def record(done: List[Any]) -> None:
            if sim.cycle > deadline:
                raise over
            for rsp in done:
                idx = index_of[rsp.tag]
                data = base64.b64encode(rsp.data or b"").decode("ascii")
                responses[idx] = dict(index=idx, data=data, cycle=sim.cycle)

        # The injector gives up only after max_drain cycles without
        # progress, so a stream it leaves unfinished ends past the deadline.
        drive_open_loop(
            sim, OpenLoopStats("", "raw", 0.0, 0, 0, 0, 0, 0), len(requests), build,
            offered_rate=0.0, duration=0, max_drain=max_cycles + 1,
            depth=MAX_TAG + 1, on_response=record,
            link_for=lambda i: int(requests[i].get("link", i)) % sim.config.num_links,
        )
        if sim.cycle > deadline:
            raise over
        return {"responses": responses, "issued": len(requests), "cycle": sim.cycle}

    def _run_sweep(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Fan a thread sweep over the shared executor + disk cache.

        Never touches the session sim, so concurrent sessions
        submitting the same sweep points share work through the cache's
        fingerprint keys rather than re-simulating.
        """
        from repro.parallel.tasks import run_task
        from repro.workloads.registry import WORKLOADS

        name = spec["workload"]
        frontend = WORKLOADS.get(name)
        threads = spec["threads"]
        params = spec.get("params") or {}
        specs = [
            frontend.task_spec(self.config, int(n), **params) for n in threads
        ]
        if self.sweep_runner is not None:
            results = self.sweep_runner(specs)
        else:
            results = [run_task(s) for s in specs]
        return {
            "workload": name,
            "fingerprint": WORKLOADS.fingerprint(name),
            "threads": list(threads),
            "results": [encode_value(r) for r in results],
        }

    # -- lifecycle ------------------------------------------------------------

    def drain(self) -> None:
        """Stop accepting; fence the current state durably.

        Pending journaled submissions stay journaled — a restarted
        server re-executes them — but nothing new is admitted.
        """
        if self.state == SessionState.CLOSED:
            return
        self.state = SessionState.DRAINING
        self.sim.drain()
        self._save_fence()
        self._persist_meta()

    def close(self) -> None:
        """Final fence; the session directory remains readable."""
        if self.state == SessionState.CLOSED:
            return
        self.sim.drain()
        self._save_fence()
        self.state = SessionState.CLOSED
        self._persist_meta()
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def snapshot(self) -> Dict[str, Any]:
        """Telemetry view of the session."""
        return {
            "session": self.name,
            "state": self.state.value,
            "config": self.config_name,
            "components": dict(self.components),
            "cycle": self.sim.cycle,
            "submissions": len(self.submissions),
            "pending": len(self.submissions) - self._executed,
            "done": self._executed - self._failed,
            "failed": self._failed,
            "checkpointed_through": self.checkpointed_through,
            "resumed": self.resumed,
        }
