"""The asyncio simulation server: a fleet of warm sessions on a socket.

:class:`SimServer` keeps many :class:`~repro.serve.session.SimSession`
instances warm and serves concurrent clients over line-delimited JSON
on a Unix-domain socket.  The concurrency model:

* The **event loop** owns the socket, parses requests, and enforces
  admission control; it never runs simulation cycles.
* Each session gets a **worker coroutine** draining a *bounded*
  submission queue; the CPU-bound fenced segments run on a small
  thread pool (``run_in_executor``), so many sessions interleave while
  the loop stays responsive.  Sessions execute their own submissions
  strictly in order — the determinism the resume contract needs.
* **Backpressure** is the bounded queue: when a session's queue is
  full, ``submit`` waits (the client's request simply doesn't get its
  ack yet) rather than buffering unboundedly.

Admission control and quotas:

``max_sessions``
    ``create`` beyond the cap is refused with ``over_capacity``.
``max_requests_per_session``
    Submissions journaled per session beyond the cap are refused with
    ``quota_exceeded``.
``queue_depth``
    The bounded per-session queue (backpressure window).

Graceful drain: SIGTERM (or :meth:`drain`) broadcasts a ``draining``
event, stops admitting sessions *and* submissions, cancels the
workers between fences, checkpoints every live session, and exits.
Journaled-but-unexecuted submissions survive in the session
directories; a restarted server (same ``--state-dir``) reloads every
session, restores checkpoints, and re-executes the journal tails —
deterministically identical to never having been killed.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.errors import ServeError
from repro.serve import schemas
from repro.serve.session import SessionState, SimSession

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
        executor_threads: int = 4,
        cache_root: Optional[Path] = None,
    ) -> None:
        self.socket_path = Path(socket_path)
        self.state_dir = Path(state_dir)
        self.max_sessions = max_sessions
        self.max_requests_per_session = max_requests_per_session
        self.queue_depth = queue_depth
        self.checkpoint_every = checkpoint_every
        self.sweep_jobs = sweep_jobs
        self.executor_threads = executor_threads
        self.cache_root = cache_root


class _SessionHandle:
    """Server-side state for one live session."""

    def __init__(self, session: SimSession, queue_depth: int) -> None:
        self.session = session
        self.queue: "asyncio.Queue[Optional[int]]" = asyncio.Queue(queue_depth)
        self.worker: Optional[asyncio.Task] = None
        #: Writers attached to this session's stream.
        self.subscribers: Set[asyncio.StreamWriter] = set()
        #: seq -> event set when that submission finishes (wait-mode).
        self.done_events: Dict[int, asyncio.Event] = {}
        #: A close is in flight: no new submissions, no worker restarts.
        self.closing = False


class SimServer:
    """Accept loop + session fleet.  One instance per socket."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.handles: Dict[str, _SessionHandle] = {}
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=config.executor_threads,
            thread_name_prefix="simserve",
        )
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

            cache = SweepCache(
                root=self.config.cache_root
            ) if self.config.cache_root else SweepCache()
            self._sweep_executor = SweepExecutor(
                jobs=self.config.sweep_jobs, cache=cache
            )
        return self._sweep_executor.run(specs)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and resume any sessions found in state_dir."""
        self.config.state_dir.mkdir(parents=True, exist_ok=True)
        self._resume_sessions()
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

    def _resume_sessions(self) -> None:
        """Reload every session directory; journal tails re-enqueue."""
        for meta in sorted(self.config.state_dir.glob("*/meta.json")):
            session = SimSession.load(
                meta.parent,
                checkpoint_every=self.config.checkpoint_every,
                sweep_runner=self._sweep_runner,
            )
            if session.state == SessionState.CLOSED:
                continue
            handle = _SessionHandle(session, self.config.queue_depth)
            self.handles[session.name] = handle

    async def serve_forever(self) -> None:
        """Accept requests until the listening socket is closed."""
        # Workers start here (not in start()) so they run on the
        # serving loop; resumed journal tails execute first.
        for handle in self.handles.values():
            self._start_worker(handle)
            for rec in handle.session.pending():
                await handle.queue.put(rec.seq)
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
        await self.start()
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
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
        # Tell every attached client, then let workers finish the
        # submission they are on (fences are quick; queued-but-unrun
        # submissions stay journaled for the next incarnation).
        event = schemas.event_msg("draining")
        for handle in self.handles.values():
            await self._broadcast(handle, event)
        for handle in self.handles.values():
            if handle.worker is not None:
                handle.worker.cancel()
        for handle in self.handles.values():
            if handle.worker is not None:
                try:
                    await handle.worker
                except asyncio.CancelledError:
                    pass
        # A cancelled worker's in-flight segment keeps running on its
        # executor thread; wait for those threads *before* fencing so
        # no session is touched from two threads at once.
        self._executor.shutdown(wait=True)
        for handle in self.handles.values():
            if handle.session.state != SessionState.CLOSED:
                handle.session.drain()
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

    # -- per-session worker ----------------------------------------------------

    def _start_worker(self, handle: _SessionHandle) -> None:
        if handle.closing:
            return
        if handle.worker is None or handle.worker.done():
            handle.worker = asyncio.ensure_future(self._worker(handle))

    async def _worker(self, handle: _SessionHandle) -> None:
        """Drain the session's queue, one fenced segment at a time."""
        loop = asyncio.get_running_loop()
        while True:
            seq = await handle.queue.get()
            if seq is None:
                return
            try:
                rec = await loop.run_in_executor(
                    self._executor, handle.session.execute_next
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - fault barrier
                # execute_next converts segment errors into a failed
                # record; reaching here means the fence itself (drain,
                # checkpoint, persist) blew up.  Fail the head record
                # so a restarted worker does not re-pick the same
                # poisoned submission, and keep this worker alive —
                # a silent death would wedge the session and block
                # wait-mode clients forever.
                rec = handle.session.fail_next(
                    f"{type(exc).__name__}: {exc}"
                )
            if rec is None:
                continue
            try:
                payload = handle.session.load_result(rec.seq)
                msg = schemas.result_msg(
                    handle.session.name,
                    rec.seq,
                    rec.kind,
                    payload,
                    ok=rec.status == "done",
                    error=rec.error,
                )
                await self._broadcast(handle, msg)
                await self._broadcast(
                    handle, schemas.telemetry_msg(handle.session.snapshot())
                )
            finally:
                # Wait-mode clients block on this event; release them
                # even if streaming the result out failed.
                event = handle.done_events.pop(rec.seq, None)
                if event is not None:
                    event.set()

    async def _broadcast(self, handle: _SessionHandle, msg: Dict[str, Any]) -> None:
        data = schemas.encode_message(msg)
        # Snapshot: a client disconnecting during the awaited drain()
        # mutates the live set from its handler's cleanup.
        for writer in list(handle.subscribers):
            if writer not in handle.subscribers:
                continue
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                handle.subscribers.discard(writer)

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
        live = sum(
            1
            for h in self.handles.values()
            if h.session.state != SessionState.CLOSED
        )
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
        loop = asyncio.get_running_loop()
        try:
            session = await loop.run_in_executor(
                self._executor,
                lambda: SimSession(
                    name,
                    req.config or "4link_4gb",
                    req.components,
                    root=self.config.state_dir,
                    checkpoint_every=self.config.checkpoint_every,
                    sweep_runner=self._sweep_runner,
                ),
            )
        except FileExistsError:
            raise ServeError(
                "bad_request",
                f"session directory for {name!r} already exists in "
                f"{self.config.state_dir}",
            ) from None
        handle = _SessionHandle(session, self.config.queue_depth)
        self.handles[name] = handle
        self._start_worker(handle)
        return schemas.ok_msg(req.id, session=name, state=session.state.value)

    async def _do_submit(self, req: schemas.Request) -> Dict[str, Any]:
        if self.draining:
            raise ServeError("draining", "server is draining; no new work")
        handle = self._handle(req.session)
        if handle.closing:
            raise ServeError(
                "draining", f"session {handle.session.name!r} is closing"
            )
        session = handle.session
        if len(session.submissions) >= self.config.max_requests_per_session:
            raise ServeError(
                "quota_exceeded",
                f"session {session.name!r} has used its submission quota "
                f"({self.config.max_requests_per_session}); open another "
                f"session",
            )
        seq = session.accept(req.kind, req.spec)  # journals durably
        done = asyncio.Event()
        if req.wait:
            handle.done_events[seq] = done
        # Backpressure: a full queue makes this submit wait its turn.
        await handle.queue.put(seq)
        self._start_worker(handle)
        if not req.wait:
            return schemas.ok_msg(req.id, session=session.name, submission=seq)
        await done.wait()
        rec = session.submissions[seq - 1]
        return schemas.ok_msg(
            req.id,
            session=session.name,
            submission=seq,
            status=rec.status,
            error=rec.error,
            payload=session.load_result(seq),
        )

    def _do_attach(
        self, req: schemas.Request, writer: asyncio.StreamWriter
    ) -> Dict[str, Any]:
        handle = self._handle(req.session)
        handle.subscribers.add(writer)
        reply = schemas.ok_msg(
            req.id,
            session=handle.session.name,
            snapshot=handle.session.snapshot(),
        )
        if req.replay:
            # Stored results first, so an attaching client sees the
            # whole history before any live stream.
            history = []
            for rec in handle.session.submissions:
                if rec.status == "pending":
                    continue
                history.append(
                    schemas.result_msg(
                        handle.session.name,
                        rec.seq,
                        rec.kind,
                        handle.session.load_result(rec.seq),
                        ok=rec.status == "done",
                        error=rec.error,
                    )
                )
            reply["history"] = history
        return reply

    def _do_stat(self, req: schemas.Request) -> Dict[str, Any]:
        if req.session is not None:
            handle = self._handle(req.session)
            return schemas.ok_msg(req.id, snapshot=handle.session.snapshot())
        return schemas.ok_msg(
            req.id,
            draining=self.draining,
            sessions=[
                h.session.snapshot() for _, h in sorted(self.handles.items())
            ],
        )

    async def _do_close(self, req: schemas.Request) -> Dict[str, Any]:
        handle = self._handle(req.session)
        if handle.closing:
            raise ServeError(
                "draining", f"session {handle.session.name!r} is closing"
            )
        session = handle.session
        # Mark the handle closing and unregister it *before* the first
        # await: a concurrent close now gets unknown_session/draining
        # instead of a double-delete, and a racing submit cannot
        # journal new work or restart the worker while session.close()
        # runs on the executor.
        handle.closing = True
        del self.handles[session.name]
        # Let the worker finish what is queued, then fence and close.
        await handle.queue.put(None)
        if handle.worker is not None:
            await handle.worker
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, session.close)
        await self._broadcast(
            handle, schemas.telemetry_msg(session.snapshot())
        )
        return schemas.ok_msg(
            req.id, session=session.name, state=session.state.value
        )
