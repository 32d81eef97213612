"""The serve protocol against a plain model: a Hypothesis state machine.

Rules drive one real server over its socket — create, submit (wait and
no-wait), attach, stat, close, a graceful drain-and-restart and a
kill-and-restart — and check every reply against a model that knows
only session names, expected statuses, quotas and the result bytes
first seen.  The kill copies the state directory at one durable-write
boundary of a submit or a close, with ``test_durability.py``'s hooks
(each ``os.replace``, each journal line whole and half-written), and
restarts on the copy; the model rewinds the way the kill table in
``docs/SERVICE.md`` says.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import ServeError
from repro.serve import schemas
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig
from repro.serve.session import SimSession
from tests.serve.conftest import ServerThread

NAMES = ("a", "b", "c")
MAX_SESSIONS = 2
QUOTA = 2


def _spec(ok: bool) -> dict:
    """mutex on 2 threads; a one-cycle budget makes it fail."""
    params = {"threads": 2} if ok else {"threads": 2, "max_cycles": 1}
    return {"workload": "mutex", "params": params}


class ProtocolMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="serve-model-"))
        self.state = self.tmp / "state"
        self.copies = 0
        #: Live sessions: name -> expected status of each seq.
        self.live: Dict[str, List[str]] = {}
        #: Names with a directory on disk (a closed session keeps its name).
        self.taken: Set[str] = set()
        #: (name, seq) -> canonical payload first seen (None: failed).
        self.results: Dict[Tuple[str, int], Optional[str]] = {}
        self._start()

    # -- plumbing ----------------------------------------------------------------

    def _start(self) -> None:
        config = ServeConfig(
            socket_path=self.tmp / "s.sock",
            state_dir=self.state,
            max_sessions=MAX_SESSIONS,
            max_requests_per_session=QUOTA,
            queue_depth=1,
        )
        self.server = ServerThread(config).start()
        self.client = ServeClient(str(config.socket_path), timeout=60.0)

    def _stop(self) -> None:
        self.client.close()
        self.server.stop()

    def teardown(self) -> None:
        try:
            self._stop()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def _refused(self, code: str, call, *args, **kwargs) -> None:
        with pytest.raises(ServeError) as exc:
            call(*args, **kwargs)
        assert exc.value.code == code, exc.value

    def _seen(self, name: str, seq: int, payload) -> None:
        canonical = None if payload is None else schemas.canonical_json(payload)
        assert self.results.setdefault((name, seq), canonical) == canonical, (name, seq)

    def _forget(self, name: str) -> None:
        for seq in range(1, len(self.live.pop(name)) + 1):
            self.results.pop((name, seq), None)

    def _check_snapshot(self, name: str, snap: dict) -> None:
        expected = self.live[name]
        finished = snap["done"] + snap["failed"]
        assert snap["submissions"] == finished + snap["pending"] == len(expected)
        assert snap["done"] == expected[:finished].count("done")
        assert snap["checkpointed_through"] <= finished

    def _check_attach(self, name: str) -> int:
        reply = self.client.attach(name)
        self._check_snapshot(name, reply["snapshot"])
        history = reply["history"]
        assert [m["submission"] for m in history] == list(range(1, len(history) + 1))
        assert len(history) == reply["snapshot"]["done"] + reply["snapshot"]["failed"]
        for msg in history:
            assert msg["ok"] == (self.live[name][msg["submission"] - 1] == "done")
            self._seen(name, msg["submission"], msg["payload"])
        return len(history)

    def _quiesce(self) -> None:
        deadline = time.monotonic() + 60
        for name in self.live:
            while self.client.stat(name)["snapshot"]["pending"]:
                assert time.monotonic() < deadline, name
                time.sleep(0.005)

    def _restart(self, state: Path) -> None:
        """Start on ``state``; every live session resumes and finishes
        its journal with the statuses and bytes seen before."""
        self.state = state
        self._start()
        self._quiesce()
        for name in self.live:
            assert self.client.stat(name)["snapshot"]["resumed"] is True
            assert self._check_attach(name) == len(self.live[name])

    # -- rules -------------------------------------------------------------------

    @invariant()
    def sessions_listed(self) -> None:
        assert self.client.hello()["sessions"] == sorted(self.live)

    @rule(name=st.sampled_from(NAMES))
    def create(self, name: str) -> None:
        if len(self.live) >= MAX_SESSIONS:
            self._refused("over_capacity", self.client.create, session=name)
        elif name in self.taken:
            self._refused("bad_request", self.client.create, session=name)
        else:
            assert self.client.create(session=name) == name
            self.live[name] = []
            self.taken.add(name)

    @rule(name=st.sampled_from(NAMES), ok=st.booleans(), wait=st.booleans())
    def submit(self, name: str, ok: bool, wait: bool) -> None:
        if name not in self.live:
            self._refused("unknown_session", self.client.submit, name, "workload", _spec(ok))
        elif len(self.live[name]) >= QUOTA:
            self._refused("quota_exceeded", self.client.submit, name, "workload", _spec(ok))
        else:
            reply = self.client.submit(name, "workload", _spec(ok), wait=wait)
            self.live[name].append("done" if ok else "failed")
            assert reply["submission"] == len(self.live[name])
            if wait:
                assert reply["status"] == self.live[name][-1]
                self._seen(name, reply["submission"], reply["payload"])

    @rule(name=st.sampled_from(NAMES))
    def attach(self, name: str) -> None:
        if name not in self.live:
            self._refused("unknown_session", self.client.attach, name)
        else:
            self._check_attach(name)

    @rule(name=st.sampled_from(NAMES))
    def stat(self, name: str) -> None:
        if name not in self.live:
            self._refused("unknown_session", self.client.stat, name)
        else:
            self._check_snapshot(name, self.client.stat(name)["snapshot"])

    @rule(name=st.sampled_from(NAMES))
    def close(self, name: str) -> None:
        if name not in self.live:
            self._refused("unknown_session", self.client.close_session, name)
        else:
            assert self.client.close_session(name)["state"] == "closed"
            self._forget(name)

    @rule()
    def drain_restart(self) -> None:
        self._stop()
        self._restart(self.state)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), close=st.booleans(), ok=st.booleans())
    def kill_restart(self, data, close: bool, ok: bool) -> None:
        name = data.draw(st.sampled_from(sorted(self.live)), label="victim")
        close = close or len(self.live[name]) >= QUOTA
        # Every other owner idle, so each copy is one instant of the
        # whole state directory.
        self._quiesce()
        victim = self.state / name
        copies: Dict[str, Path] = {}  # boundary label -> the copy

        def copy(label: str) -> Path:
            self.copies += 1
            copies[label] = Path(shutil.copytree(self.state, self.tmp / f"kill{self.copies}"))
            return copies[label]

        real_replace, real_append = os.replace, SimSession._append_journal

        def replace(src, dst):
            if Path(dst).parent == victim:
                copy(f"before {Path(dst).name}")
            real_replace(src, dst)
            if Path(dst).parent == victim:
                copy(f"after {Path(dst).name}")

        def append(session, line):
            real_append(session, line)
            if session.root == victim:
                kind = "accept" if '"kind"' in line else "status"
                copy(f"after {kind} line")
                torn = copy(f"torn {kind} line") / name / "journal.jsonl"
                torn.write_bytes(torn.read_bytes()[: -(len(line.encode()) // 2)])

        os.replace, SimSession._append_journal = replace, append
        try:
            if close:
                assert self.client.close_session(name)["state"] == "closed"
            else:
                reply = self.client.submit(name, "workload", _spec(ok), wait=True)
        finally:
            os.replace, SimSession._append_journal = real_replace, real_append
        label = data.draw(st.sampled_from(list(copies)), label="killed")

        # The kill table: the header replace is what closes a session,
        # and a half-written accept line was never acked.
        if close and label == "after meta.json":
            self._forget(name)
        elif not close and label != "torn accept line":
            self.live[name].append("done" if ok else "failed")
            assert reply["status"] == self.live[name][-1]
            self._seen(name, reply["submission"], reply["payload"])
        self._stop()
        self._restart(copies[label])


ProtocolMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestProtocolModel = ProtocolMachine.TestCase
