"""Synchronous client for the simulation service.

:class:`ServeClient` speaks the line-delimited JSON protocol over the
server's Unix socket.  It is deliberately synchronous (plain
``socket`` + blocking reads): the CLI subcommands and tests drive one
request at a time, and a blocking client exercises the server's
concurrency honestly — many *clients*, each simple.

Unsolicited stream messages (``result``/``telemetry``/``event``)
arriving while a reply is awaited are buffered and later yielded by
:meth:`events`, so a single connection can submit *and* attach.
"""

from __future__ import annotations

import itertools
import json
import socket
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ServeError
from repro.serve import schemas

__all__ = ["ServeClient"]


class ServeClient:
    """One connection to a :class:`~repro.serve.server.SimServer`."""

    def __init__(self, socket_path: str, *, timeout: Optional[float] = 60.0) -> None:
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(self.socket_path)
        self._file = self._sock.makefile("rb")
        self._ids = itertools.count(1)
        self._stream: List[Dict[str, Any]] = []

    # -- plumbing -------------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _read_message(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ServeError("internal", "server closed the connection")
        return schemas.decode_message(line.decode("utf-8"))

    def _rpc(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request; return its reply (buffering stream traffic).

        Raises:
            ServeError: the server refused the request; ``code`` is the
                server's machine-readable refusal code.
        """
        rid = f"c{next(self._ids)}"
        doc = {"v": schemas.PROTOCOL_VERSION, "id": rid, **doc}
        self._sock.sendall((json.dumps(doc) + "\n").encode("utf-8"))
        while True:
            msg = self._read_message()
            if msg.get("id") == rid and msg["type"] in ("ok", "error"):
                if msg["type"] == "error":
                    raise ServeError(msg.get("code", "internal"), msg.get("message", ""))
                return msg
            # Unsolicited stream message for an attached session.
            self._stream.append(msg)

    # -- the protocol ---------------------------------------------------------

    def hello(self) -> Dict[str, Any]:
        """Capability handshake: limits, live sessions, drain state."""
        return self._rpc({"type": "hello"})

    def create(
        self,
        config: str = "4link_4gb",
        *,
        components: Optional[Dict[str, str]] = None,
        session: Optional[str] = None,
    ) -> str:
        """Create a warm session; returns its name."""
        doc: Dict[str, Any] = {"type": "create", "config": config}
        if components:
            doc["components"] = components
        if session is not None:
            doc["session"] = session
        return self._rpc(doc)["session"]

    def submit(
        self,
        session: str,
        kind: str,
        spec: Dict[str, Any],
        *,
        wait: bool = False,
    ) -> Dict[str, Any]:
        """Enqueue one submission.

        ``wait=False`` returns the ack (``submission`` sequence
        number); ``wait=True`` blocks until the submission finishes and
        returns its status and canonical payload.
        """
        return self._rpc(
            {
                "type": "submit",
                "session": session,
                "kind": kind,
                "spec": spec,
                "wait": wait,
            }
        )

    def attach(self, session: str, *, replay: bool = True) -> Dict[str, Any]:
        """Subscribe this connection to a session's stream.

        The reply carries a ``snapshot`` and (with ``replay``) the
        ``history`` of stored results; live messages then arrive via
        :meth:`events`.
        """
        return self._rpc(
            {"type": "attach", "session": session, "replay": replay}
        )

    def stat(self, session: Optional[str] = None) -> Dict[str, Any]:
        """Server-wide (or one session's) telemetry snapshot."""
        doc: Dict[str, Any] = {"type": "stat"}
        if session is not None:
            doc["session"] = session
        return self._rpc(doc)

    def close_session(self, session: str) -> Dict[str, Any]:
        """Drain, final-fence, and close a session."""
        return self._rpc({"type": "close", "session": session})

    # -- the stream -----------------------------------------------------------

    def events(self, *, max_events: Optional[int] = None) -> Iterator[Dict[str, Any]]:
        """Yield stream messages (buffered first, then live reads).

        Blocks on the socket between live messages; bound the iteration
        with ``max_events`` or rely on the socket timeout.
        """
        count = 0
        while self._stream:
            if max_events is not None and count >= max_events:
                return
            yield self._stream.pop(0)
            count += 1
        while max_events is None or count < max_events:
            yield self._read_message()
            count += 1
