"""Fixtures for the simulation-service tests.

The server runs in a background thread with its own event loop — the
same shape as ``repro serve`` — so the synchronous
:class:`~repro.serve.client.ServeClient` exercises real socket
concurrency from the test process.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.serve.server import ServeConfig, SimServer


def read_journal(session_dir: Path) -> dict:
    """A session directory's durable record, folded by hand (not with
    the production loader, so the tests pin the on-disk format):
    ``submissions`` from ``journal.jsonl`` (last status line per seq
    wins) and ``checkpointed_through`` from inside ``checkpoint.json``.
    """
    submissions = []
    journal = Path(session_dir) / "journal.jsonl"
    for line in journal.read_text().splitlines() if journal.exists() else ():
        doc = json.loads(line)
        if "kind" in doc:
            submissions.append({**doc, "status": "pending", "error": None})
        else:
            submissions[doc["seq"] - 1].update(doc)
    checkpoint = Path(session_dir) / "checkpoint.json"
    through = 0
    if checkpoint.exists():
        through = json.loads(checkpoint.read_text())["meta"]["checkpointed_through"]
    return {"submissions": submissions, "checkpointed_through": through}


class ServerThread:
    """One SimServer on a background event loop, stoppable."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server = SimServer(config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(
                self.server.run(install_signal_handlers=False)
            )
        finally:
            self.loop.close()

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self.thread.start()
        deadline = time.monotonic() + timeout
        # The socket file appears at bind(), a moment before listen():
        # wait until a connection is accepted, not until the file exists.
        while True:
            with socket.socket(socket.AF_UNIX) as probe:
                try:
                    probe.connect(str(self.config.socket_path))
                    return self
                except (FileNotFoundError, ConnectionRefusedError):
                    pass
            if time.monotonic() > deadline:
                raise RuntimeError("server socket never appeared")
            time.sleep(0.02)

    def stop(self, timeout: float = 60.0) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_stop)
            self.thread.join(timeout=timeout)
        if self.thread.is_alive():  # pragma: no cover - debugging aid
            raise RuntimeError("server thread failed to drain")


@pytest.fixture
def serve_dirs(tmp_path: Path):
    """(socket_path, state_dir, cache_root) under tmp_path."""
    return (
        tmp_path / "sim.sock",
        tmp_path / "state",
        tmp_path / "cache",
    )


@pytest.fixture
def make_server(serve_dirs):
    """Factory: start a server with overrides; all stopped on teardown."""
    sock, state, cache = serve_dirs
    started = []

    def _make(**overrides) -> ServerThread:
        kwargs = dict(
            socket_path=sock,
            state_dir=state,
            max_sessions=4,
            max_requests_per_session=64,
            queue_depth=8,
            checkpoint_every=1,
            sweep_jobs=1,
            cache_root=cache,
        )
        kwargs.update(overrides)
        server = ServerThread(ServeConfig(**kwargs)).start()
        started.append(server)
        return server

    yield _make
    for server in started:
        server.stop()
