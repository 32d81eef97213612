"""The asyncio simulation server: a fleet of warm sessions on a socket.

:class:`SimServer` keeps many :class:`~repro.serve.session.SimSession`
instances warm and serves concurrent clients over line-delimited JSON
on a Unix-domain socket.  The concurrency model is single ownership:

* Each live session has **one owner thread**, the only code that
  touches it: creation (or load), ``accept``, ``execute_next``,
  ``drain`` and ``close`` run there in the order the loop enqueued
  them, and while no request waits the owner executes the journal
  head.  No lock; submissions run strictly in order, the determinism
  the resume contract needs.
* The **event loop** owns the socket and admission control.  It never
  runs cycles or reads a session: it enqueues jobs and awaits them, and
  ``stat``/``attach`` read what the owner publishes after every step.
* **Backpressure**: a ``submit``'s ack waits until no more than
  ``queue_depth`` acked submissions of the session are unfinished.

Admission control and quotas:

``max_sessions``
    ``create`` beyond the cap is refused with ``over_capacity``.
``max_requests_per_session``
    Submissions journaled per session beyond the cap are refused with
    ``quota_exceeded``.
``queue_depth``
    The per-session backpressure window.

Graceful drain: SIGTERM (or :meth:`drain`) broadcasts a ``draining``
event and stops admitting sessions *and* submissions; each owner
finishes the segment it is on, checkpoints its session and exits.
Journaled-but-unexecuted submissions survive in the session
directories; a restarted server (same ``--state-dir``) reloads every
session, restores checkpoints, and re-executes the journal tails —
deterministically identical to never having been killed.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import ServeError
from repro.serve import schemas
from repro.serve.session import SessionState, SimSession, SubmissionRecord

__all__ = ["ServeConfig", "SimServer"]


class ServeConfig:
    """Tunables for one server instance."""

    def __init__(
        self,
        *,
        socket_path: Path,
        state_dir: Path,
        max_sessions: int = 8,
        max_requests_per_session: int = 256,
        queue_depth: int = 16,
        checkpoint_every: int = 1,
        sweep_jobs: int = 1,
        cache_root: Optional[Path] = None,
    ) -> None:
        self.socket_path = Path(socket_path)
        self.state_dir = Path(state_dir)
        self.max_sessions = max_sessions
        self.max_requests_per_session = max_requests_per_session
        self.queue_depth = queue_depth
        self.checkpoint_every = checkpoint_every
        self.sweep_jobs = sweep_jobs
        self.cache_root = cache_root


class _SessionHandle:
    """One session's owner thread, and what it publishes for the loop.

    The loop talks to the owner only through :meth:`call` (enqueue a job
    that takes the session) and :meth:`stop` (the owner's last job); the
    owner talks back only through ``call_soon_threadsafe``.
    """

    def __init__(self, make: Callable[[], SimSession]) -> None:
        self._loop = asyncio.get_running_loop()
        self._jobs: "queue.SimpleQueue" = queue.SimpleQueue()
        #: Resolves once ``make()`` has built (or loaded) the session.
        self.ready: "asyncio.Future[None]" = self._loop.create_future()
        #: The owner's last published ``session.snapshot()``.
        self.snapshot: Dict[str, Any] = {}
        #: Finished records in seq order: ``finished[seq - 1]``.
        self.finished: List[SubmissionRecord] = []
        #: Reads the immutable ``result-<seq>.json`` files, nothing else.
        self.load_result: Callable[[int], Any] = lambda seq: None
        #: Writers attached to this session's stream.
        self.subscribers: Set[asyncio.StreamWriter] = set()
        #: seq -> event set when that submission finishes.
        self._done: Dict[int, asyncio.Event] = {}
        threading.Thread(
            target=self._own, args=(make,), name="simserve-owner", daemon=True
        ).start()

    @property
    def name(self) -> str:
        return self.snapshot["session"]

    # -- the event loop's side --------------------------------------------------

    def call(self, job: Callable[[SimSession], Any]) -> "asyncio.Future[Any]":
        """Run ``job(session)`` on the owner, after the jobs before it."""
        future = self._loop.create_future()
        self._jobs.put((job, future))
        return future

    def stop(self) -> None:
        """The owner exits once the jobs already enqueued are done.

        No job can follow: the caller unregisters the handle (close) or
        has already refused new work (drain), and every :meth:`call`
        follows its registry lookup without an ``await`` in between.
        """
        self._jobs.put((None, None))

    async def finished_through(self, seq: int) -> None:
        """Return once submission ``seq``, and so every earlier one, is done."""
        if seq > len(self.finished):
            await self._done.setdefault(seq, asyncio.Event()).wait()

    def result_msg(self, rec: SubmissionRecord) -> Dict[str, Any]:
        return schemas.result_msg(
            self.name, rec.seq, rec.kind, self.load_result(rec.seq),
            ok=rec.status == "done", error=rec.error,
        )

    def broadcast(self, msg: Dict[str, Any]) -> None:
        data = schemas.encode_message(msg)
        for writer in list(self.subscribers):
            try:
                writer.write(data)
            except (ConnectionError, RuntimeError):
                self.subscribers.discard(writer)

    def _settle(self, future, result, exc, snapshot, records) -> None:
        """Loop side of one owner step: publish, then answer the job."""
        self.snapshot = snapshot
        for rec in records:
            self.finished.append(rec)
            if self.subscribers:
                self.broadcast(self.result_msg(rec))
                self.broadcast(schemas.telemetry_msg(snapshot))
            event = self._done.pop(rec.seq, None)
            if event is not None:
                event.set()
        if future is not None and not future.cancelled():
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)

    # -- the owner thread -------------------------------------------------------

    def _publish(self, session: SimSession, records=(), future=None, result=None, exc=None) -> None:
        self._loop.call_soon_threadsafe(
            self._settle, future, result, exc, session.snapshot(), list(records)
        )

    def _own(self, make: Callable[[], SimSession]) -> None:
        """The owner thread: the only code that touches the session."""
        try:
            session = make()
        except Exception as exc:  # noqa: BLE001 - the creator gets it
            self._loop.call_soon_threadsafe(self._settle, self.ready, None, exc, {}, [])
            return
        self.load_result = session.load_result
        done = [rec for rec in session.submissions if rec.status != "pending"]
        self._publish(session, done, self.ready)
        jobs = self._jobs
        while True:
            # Requests first: an accept, drain or close waits for at most
            # the segment in progress, never for the whole backlog.
            if jobs.empty() and session.pending() and session.state is not SessionState.DRAINING:
                self._execute(session)
                continue
            job, future = jobs.get()
            if job is None:
                return
            result = error = None
            try:
                result = job(session)
            except Exception as exc:  # noqa: BLE001 - the caller gets it
                error = exc
            self._publish(session, (), future, result, error)

    def _execute(self, session: SimSession) -> Optional[SubmissionRecord]:
        """Owner side: run the journal head and publish the finished record."""
        rec = session.execute_next()
        if rec is not None:
            self._publish(session, [rec])
        return rec

    def close(self, session: SimSession) -> None:
        """The close job (owner side): the queued work, then the final fence."""
        while self._execute(session) is not None:
            pass
        session.close()


class SimServer:
    """Accept loop + session fleet.  One instance per socket."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.handles: Dict[str, _SessionHandle] = {}
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._session_counter = 0
        self._sweep_executor = None
        self._clients: Set[asyncio.StreamWriter] = set()
        self._client_tasks: Set[asyncio.Task] = set()
        self._stop_event: Optional[asyncio.Event] = None

    # -- the shared sweep layer ----------------------------------------------

    def _sweep_runner(self, specs: List[Any]) -> List[Any]:
        """Fan sweep specs over one shared executor + disk cache.

        Every session's sweep submissions multiplex over the same
        :class:`~repro.parallel.pool.SweepExecutor`; the on-disk cache
        fingerprints dedup identical points across sessions and across
        server restarts.
        """
        if self._sweep_executor is None:
            from repro.parallel.cache import SweepCache
            from repro.parallel.pool import SweepExecutor

            self._sweep_executor = SweepExecutor(
                jobs=self.config.sweep_jobs,
                cache=SweepCache(self.config.cache_root),
            )
        return self._sweep_executor.run(specs)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and resume any sessions found in state_dir."""
        self.config.state_dir.mkdir(parents=True, exist_ok=True)
        await self._resume_sessions()
        self.config.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.config.socket_path.exists():
            self.config.socket_path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle_client,
            path=str(self.config.socket_path),
            # readline() enforces the StreamReader limit (default
            # 64 KiB); the protocol allows _MAX_LINE-byte messages,
            # plus slack so an over-limit line is *our* diagnostic.
            limit=schemas._MAX_LINE + 1024,
        )

    async def _resume_sessions(self) -> None:
        """Reload every session directory; each owner then runs its
        journal tail."""
        for meta in sorted(self.config.state_dir.glob("*/meta.json")):
            handle = _SessionHandle(
                lambda root=meta.parent: SimSession.load(
                    root,
                    checkpoint_every=self.config.checkpoint_every,
                    sweep_runner=self._sweep_runner,
                )
            )
            await handle.ready
            if handle.snapshot["state"] == SessionState.CLOSED.value:
                handle.stop()
            else:
                self.handles[handle.name] = handle

    async def serve_forever(self) -> None:
        """Accept requests until the listening socket is closed."""
        assert self._server is not None
        async with self._server:
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass

    def request_stop(self) -> None:
        """Ask :meth:`run` to drain and exit (thread- and signal-safe
        via ``loop.call_soon_threadsafe(server.request_stop)``)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def run(self, *, install_signal_handlers: bool = True) -> None:
        """Start, serve, and drain on SIGTERM/SIGINT — the whole life.

        This is the entry point the CLI awaits: it owns the stop
        sequence, so the loop stays alive through the graceful drain
        (closing the listener cancels ``serve_forever``, which would
        otherwise end a bare ``run_until_complete`` mid-drain).
        """
        # Before start(): a stop requested while it binds is kept, not lost.
        self._stop_event = asyncio.Event()
        await self.start()
        loop = asyncio.get_running_loop()
        if install_signal_handlers:
            import signal

            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self._stop_event.set)
        serve_task = asyncio.ensure_future(self.serve_forever())
        try:
            await self._stop_event.wait()
        finally:
            await self.drain()
            serve_task.cancel()
            try:
                await serve_task
            except asyncio.CancelledError:
                pass
            if install_signal_handlers:
                for sig in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(sig)

    async def drain(self) -> None:
        """Graceful shutdown: fence and checkpoint every live session."""
        if self.draining:
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
        # Tell every attached client, then let each owner finish the
        # segment it is on, fence and exit (queued-but-unrun
        # submissions stay journaled for the next incarnation).  A
        # session mid-close fences after its close.
        event = schemas.event_msg("draining")
        fences = []
        for handle in self.handles.values():
            handle.broadcast(event)
            fences.append(handle.call(SimSession.drain))
            handle.stop()
        await asyncio.gather(*fences, return_exceptions=True)
        # Hang up on every open client and reap the handler tasks.
        # (No wait_closed(): on 3.11 it blocks until every handler
        # task finishes, which deadlocks a drain issued from a
        # handler's own request.)
        for writer in list(self._clients):
            try:
                writer.close()
            except RuntimeError:
                pass
        for task in list(self._client_tasks):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        # Give the closed transports their teardown callbacks before the
        # loop dies (a GC'd half-closed transport warns "loop is closed").
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        if self.config.socket_path.exists():
            self.config.socket_path.unlink()

    # -- client handling -------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except ValueError:
                    # readline() wraps LimitOverrunError in ValueError,
                    # so the bare LimitOverrunError never surfaces. The
                    # stream cannot be resynced past an over-limit
                    # line; send a structured refusal, then hang up.
                    writer.write(
                        schemas.encode_message(
                            schemas.error_msg(
                                None,
                                "bad_request",
                                f"message exceeds the {schemas._MAX_LINE}"
                                f"-byte line limit",
                            )
                        )
                    )
                    try:
                        await writer.drain()
                    except ConnectionError:
                        pass
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                rid = None
                try:
                    doc = schemas.decode_request(text)
                    rid = doc.get("id")
                    req = schemas.parse_request(doc)
                    reply = await self._dispatch(req, writer)
                except ServeError as exc:
                    reply = schemas.error_msg(rid, exc.code, str(exc))
                except Exception as exc:  # noqa: BLE001 - fault barrier
                    reply = schemas.error_msg(
                        rid, "internal", f"{type(exc).__name__}: {exc}"
                    )
                writer.write(schemas.encode_message(reply))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            pass  # drain reaps handlers; end the connection quietly
        finally:
            self._clients.discard(writer)
            if task is not None:
                self._client_tasks.discard(task)
            for handle in self.handles.values():
                handle.subscribers.discard(writer)
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _dispatch(
        self, req: schemas.Request, writer: asyncio.StreamWriter
    ) -> Dict[str, Any]:
        if req.type == "hello":
            return schemas.ok_msg(
                req.id,
                protocol=schemas.PROTOCOL_VERSION,
                draining=self.draining,
                sessions=sorted(self.handles),
                limits={
                    "max_sessions": self.config.max_sessions,
                    "max_requests_per_session": (
                        self.config.max_requests_per_session
                    ),
                    "queue_depth": self.config.queue_depth,
                },
            )
        if req.type == "create":
            return await self._do_create(req)
        if req.type == "submit":
            return await self._do_submit(req)
        if req.type == "attach":
            return self._do_attach(req, writer)
        if req.type == "stat":
            return self._do_stat(req)
        if req.type == "close":
            return await self._do_close(req)
        raise ServeError("bad_request", f"unhandled request {req.type!r}")

    def _handle(self, name: Optional[str]) -> _SessionHandle:
        handle = self.handles.get(name or "")
        if handle is None:
            raise ServeError(
                "unknown_session",
                f"no session named {name!r} "
                f"(have: {', '.join(sorted(self.handles)) or '<none>'})",
            )
        return handle

    async def _do_create(self, req: schemas.Request) -> Dict[str, Any]:
        if self.draining:
            raise ServeError("draining", "server is draining; no new sessions")
        live = len(self.handles)
        if live >= self.config.max_sessions:
            raise ServeError(
                "over_capacity",
                f"session cap reached ({live}/{self.config.max_sessions}); "
                f"close a session or raise --max-sessions",
            )
        name = req.session
        if name is None:
            # The counter restarts at 0 with the server, but resumed
            # handles and closed sessions' directories persist — skip
            # past both so an auto-named create never collides.
            while True:
                self._session_counter += 1
                name = f"session-{self._session_counter:04d}"
                if (
                    name not in self.handles
                    and not (self.config.state_dir / name).exists()
                ):
                    break
        if name in self.handles:
            raise ServeError(
                "bad_request", f"session {name!r} already exists"
            )

        def make() -> SimSession:
            try:
                return SimSession(
                    name,
                    req.config or "4link_4gb",
                    req.components,
                    root=self.config.state_dir,
                    checkpoint_every=self.config.checkpoint_every,
                    sweep_runner=self._sweep_runner,
                )
            except FileExistsError:
                raise ServeError(
                    "bad_request",
                    f"session directory for {name!r} already exists in "
                    f"{self.config.state_dir}",
                ) from None

        handle = _SessionHandle(make)
        try:
            await handle.ready
            if self.draining:  # drain began while the sim was built
                raise ServeError("draining", "server is draining; no new sessions")
        except BaseException:
            handle.stop()  # a failed or abandoned create leaves no owner
            raise
        self.handles[name] = handle
        return schemas.ok_msg(req.id, session=name, state=handle.snapshot["state"])

    async def _do_submit(self, req: schemas.Request) -> Dict[str, Any]:
        if self.draining:
            raise ServeError("draining", "server is draining; no new work")
        handle = self._handle(req.session)
        quota = self.config.max_requests_per_session

        def accept(session: SimSession) -> int:
            if len(session.submissions) >= quota:
                raise ServeError(
                    "quota_exceeded",
                    f"session {session.name!r} has used its submission "
                    f"quota ({quota}); open another session",
                )
            return session.accept(req.kind, req.spec)  # journals durably

        seq = await handle.call(accept)
        # Backpressure: the ack waits until at most queue_depth acked
        # submissions of this session are unfinished.
        await handle.finished_through(seq - self.config.queue_depth)
        if not req.wait:
            return schemas.ok_msg(req.id, session=handle.name, submission=seq)
        await handle.finished_through(seq)
        rec = handle.finished[seq - 1]
        return schemas.ok_msg(
            req.id,
            session=handle.name,
            submission=seq,
            status=rec.status,
            error=rec.error,
            payload=handle.load_result(seq),
        )

    def _do_attach(
        self, req: schemas.Request, writer: asyncio.StreamWriter
    ) -> Dict[str, Any]:
        handle = self._handle(req.session)
        handle.subscribers.add(writer)
        reply = schemas.ok_msg(
            req.id, session=handle.name, snapshot=handle.snapshot
        )
        if req.replay:
            # Stored results first, so an attaching client sees the
            # whole history before any live stream.
            reply["history"] = [handle.result_msg(rec) for rec in handle.finished]
        return reply

    def _do_stat(self, req: schemas.Request) -> Dict[str, Any]:
        if req.session is not None:
            handle = self._handle(req.session)
            return schemas.ok_msg(req.id, snapshot=handle.snapshot)
        return schemas.ok_msg(
            req.id,
            draining=self.draining,
            sessions=[h.snapshot for _, h in sorted(self.handles.items())],
        )

    async def _do_close(self, req: schemas.Request) -> Dict[str, Any]:
        if self.draining:
            raise ServeError("draining", "server is draining; it closes every session")
        handle = self._handle(req.session)
        # Jobs queued behind the close meet a closed session: a submit is
        # refused with ``draining``, a second close finds nothing to pop.
        await handle.call(handle.close)
        if self.handles.pop(handle.name, None) is None:
            raise ServeError("unknown_session", f"session {handle.name!r} is already closed")
        handle.stop()
        handle.broadcast(schemas.telemetry_msg(handle.snapshot))
        return schemas.ok_msg(
            req.id, session=handle.name, state=handle.snapshot["state"]
        )
