"""SimServer over a real socket: admission, quotas, streams, drain."""

from __future__ import annotations

import io
import json
import shutil
import time
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve import schemas
from repro.serve.client import ServeClient
from tests.serve.conftest import read_journal


def _mutex(threads=2):
    return {"workload": "mutex", "params": {"threads": threads}}


class TestProtocol:
    def test_hello_reports_limits(self, make_server):
        server = make_server(max_sessions=3)
        with ServeClient(str(server.config.socket_path)) as client:
            reply = client.hello()
            assert reply["protocol"] == schemas.PROTOCOL_VERSION
            assert reply["limits"]["max_sessions"] == 3
            assert reply["draining"] is False

    def test_unknown_session_refused(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            with pytest.raises(ServeError) as exc:
                client.stat("ghost")
            assert exc.value.code == "unknown_session"

    def test_malformed_line_gets_structured_error(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            client._sock.sendall(b"{broken\n")
            msg = client._read_message()
            assert msg["type"] == "error"
            assert msg["code"] == "bad_request"

    def test_wrong_protocol_version(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            client._sock.sendall(
                (json.dumps({"v": 99, "id": "x", "type": "hello"}) + "\n").encode()
            )
            msg = client._read_message()
            assert msg["code"] == "protocol_version"
            # The line is parsed once; a refusal still names its request.
            assert msg["id"] == "x"


class TestAdmission:
    def test_create_and_submit_wait(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            name = client.create(session="alpha")
            assert name == "alpha"
            reply = client.submit(name, "workload", _mutex(), wait=True)
            assert reply["status"] == "done"
            assert reply["payload"]["workload"] == "mutex"

    def test_session_cap(self, make_server):
        server = make_server(max_sessions=1)
        with ServeClient(str(server.config.socket_path)) as client:
            client.create()
            with pytest.raises(ServeError) as exc:
                client.create()
            assert exc.value.code == "over_capacity"

    def test_duplicate_name_refused(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            client.create(session="dup")
            with pytest.raises(ServeError) as exc:
                client.create(session="dup")
            assert exc.value.code == "bad_request"

    def test_submission_quota(self, make_server):
        server = make_server(max_requests_per_session=2)
        with ServeClient(str(server.config.socket_path)) as client:
            name = client.create()
            client.submit(name, "workload", _mutex(), wait=True)
            client.submit(name, "workload", _mutex(), wait=True)
            with pytest.raises(ServeError) as exc:
                client.submit(name, "workload", _mutex())
            assert exc.value.code == "quota_exceeded"

    def test_bad_component_is_structured(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            with pytest.raises(ServeError) as exc:
                client.create(components={"xbar": "nope"})
            assert exc.value.code == "bad_request"

    def test_timing_selection_reaches_the_session(self, make_server):
        from repro.hmc.config import resolve_config
        from repro.workloads.registry import WORKLOADS

        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            name = client.create(components={"timing": "open_page"})
            reply = client.submit(name, "workload", _mutex(4), wait=True)
        assert reply["status"] == "done"
        mutex = WORKLOADS.get("mutex")
        timed = mutex.run(resolve_config("4link", {"timing": "open_page"}), {"threads": 4})
        assert reply["payload"] == {
            "workload": "mutex",
            "warm": True,
            "fingerprint": WORKLOADS.fingerprint("mutex"),
            "stats": schemas.encode_value(timed),
        }
        untimed = mutex.run(resolve_config("4link"), {"threads": 4})
        assert timed.max_cycle != untimed.max_cycle

    def test_tiny_queue_still_completes(self, make_server):
        # queue_depth=1 forces the backpressure path: later submits
        # wait for queue space instead of erroring.
        server = make_server(queue_depth=1)
        with ServeClient(str(server.config.socket_path)) as client:
            name = client.create()
            for _ in range(4):
                client.submit(name, "workload", _mutex())
            reply = client.submit(name, "workload", _mutex(), wait=True)
            assert reply["status"] == "done"
            snap = client.stat(name)["snapshot"]
            assert snap["done"] == 5


class TestStreams:
    def test_attach_replays_history(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            name = client.create()
            client.submit(name, "workload", _mutex(), wait=True)
            client.submit(name, "workload", _mutex(4), wait=True)
            reply = client.attach(name)
            assert reply["snapshot"]["done"] == 2
            history = reply["history"]
            assert [m["submission"] for m in history] == [1, 2]
            assert all(m["ok"] for m in history)

    def test_attached_client_sees_live_results(self, make_server):
        server = make_server()
        sock = str(server.config.socket_path)
        with ServeClient(sock) as watcher, ServeClient(sock) as submitter:
            name = submitter.create()
            watcher.attach(name, replay=False)
            submitter.submit(name, "workload", _mutex(), wait=True)
            msg = next(
                m for m in watcher.events()
                if m.get("type") == "result" and m.get("submission") == 1
            )
            assert msg["session"] == name and msg["ok"] is True
            assert msg["payload"]["workload"] == "mutex"

    def test_close_session(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            name = client.create()
            client.submit(name, "workload", _mutex(), wait=True)
            reply = client.close_session(name)
            assert reply["state"] == "closed"
            with pytest.raises(ServeError) as exc:
                client.submit(name, "workload", _mutex())
            assert exc.value.code == "unknown_session"

    def test_sweep_refusal_over_the_wire(self, make_server):
        from repro.cli import main

        server = make_server()
        argv = [
            "client", "--socket", str(server.config.socket_path), "submit",
            "--kind", "sweep", '{"workload": "ticket", "threads": [2]}',
        ]
        out = io.StringIO()
        assert main(argv, out=out) == 1
        assert out.getvalue() == (
            "error bad_request: workload 'ticket' cannot be swept (no task_spec)\n"
        )


class TestFaultBarrier:
    def test_bad_sweep_params_fail_submission_not_session(self, make_server):
        # A TypeError inside the segment (unknown sweep param) used to
        # kill the worker coroutine and wedge the session; wait-mode
        # clients would then block forever.
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            name = client.create()
            reply = client.submit(
                name,
                "sweep",
                {"workload": "mutex", "threads": [2], "params": {"bogus": 1}},
                wait=True,
            )
            assert reply["status"] == "failed"
            assert "TypeError" in reply["error"]
            # The worker survived; the session still runs work.
            reply = client.submit(name, "workload", _mutex(), wait=True)
            assert reply["status"] == "done"

    def test_checkpoint_error_neither_hangs_nor_skips(
        self, make_server, serve_dirs, monkeypatch, tmp_path
    ):
        # The first fence raises.  It used to escape execute_next: the
        # wait-mode submit hung, and the fault barrier failed the next
        # submission without running it.
        import repro.hmc.checkpoint as checkpoint

        real_save = checkpoint.save_checkpoint
        raised = []

        def flaky_save(*args, **kwargs):
            if not raised:
                raised.append(True)
                raise OSError(28, "disk full")
            return real_save(*args, **kwargs)

        monkeypatch.setattr(checkpoint, "save_checkpoint", flaky_save)
        _sock, state, _cache = serve_dirs
        server = make_server()
        with ServeClient(str(server.config.socket_path), timeout=10.0) as client:
            name = client.create(session="fence")
            assert client.submit(name, "workload", _mutex(), wait=True)["status"] == "done"
            snap = client.stat(name)["snapshot"]
            # The status stands and the label lags: that is the signal.
            assert (snap["done"], snap["checkpointed_through"]) == (1, 0)
            # A kill now leaves this directory behind.
            killed = Path(shutil.copytree(state, tmp_path / "killed"))
            cycles = [snap["cycle"]]
            for _ in range(2):
                reply = client.submit(name, "workload", _mutex(), wait=True)
                assert reply["status"] == "done"
                cycles.append(client.stat(name)["snapshot"]["cycle"])
            assert cycles[0] < cycles[1] < cycles[2]
        assert raised
        journal = read_journal(state / name)
        assert [s["status"] for s in journal["submissions"]] == ["done"] * 3
        assert journal["checkpointed_through"] == 3
        server.stop()

        # Restart on the killed directory: no checkpoint, so seq 1
        # replays from label 0 and rewrites the same bytes.
        original = (state / name / "result-1.json").read_bytes()
        assert (killed / name / "result-1.json").read_bytes() == original
        revived = make_server(state_dir=killed)
        with ServeClient(str(revived.config.socket_path), timeout=10.0) as client:
            deadline = time.monotonic() + 60
            while client.stat(name)["snapshot"]["checkpointed_through"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            snap = client.stat(name)["snapshot"]
        assert (snap["resumed"], snap["done"], snap["failed"]) == (True, 1, 0)
        assert (killed / name / "result-1.json").read_bytes() == original

    def test_large_line_within_protocol_limit(self, make_server):
        # Bigger than asyncio's 64 KiB StreamReader default, smaller
        # than the protocol's _MAX_LINE: must parse, not drop the
        # connection.
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            doc = {
                "v": schemas.PROTOCOL_VERSION,
                "id": "big",
                "type": "hello",
                "pad": "x" * (128 * 1024),
            }
            client._sock.sendall((json.dumps(doc) + "\n").encode())
            msg = client._read_message()
            assert msg["type"] == "ok"
            assert msg["id"] == "big"

    def test_over_limit_line_structured_error(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path), timeout=120.0) as client:
            client._sock.sendall(b"x" * (schemas._MAX_LINE + 64 * 1024) + b"\n")
            msg = client._read_message()
            assert msg["type"] == "error"
            assert msg["code"] == "bad_request"
            assert "limit" in msg["message"]

    def test_concurrent_close_is_structured(self, make_server):
        import threading

        server = make_server()
        sock = str(server.config.socket_path)
        with ServeClient(sock) as c1, ServeClient(sock) as c2:
            name = c1.create(session="races")
            c1.submit(name, "workload", _mutex(), wait=True)
            codes = []

            def close_from(client):
                try:
                    client.close_session(name)
                    codes.append("ok")
                except ServeError as exc:
                    codes.append(exc.code)

            threads = [
                threading.Thread(target=close_from, args=(c,))
                for c in (c1, c2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        # Exactly one close wins; the loser gets a structured refusal,
        # never a KeyError surfaced as "internal".
        assert sorted(codes) in (
            ["draining", "ok"],
            ["ok", "unknown_session"],
        ), codes


class TestConcurrency:
    def test_four_concurrent_clients_bit_identical(self, make_server):
        import threading

        server = make_server()
        sock = str(server.config.socket_path)
        jobs = [
            ("c1", _mutex(2)),
            ("c2", _mutex(4)),
            ("c3", {"workload": "ticket", "params": {"threads": 2}}),
            ("c4", {"workload": "barrier", "params": {"threads": 2}}),
        ]
        payloads = {}
        errors = []

        def drive(name, spec):
            try:
                with ServeClient(sock, timeout=300.0) as client:
                    session = client.create(session=name)
                    reply = client.submit(session, "workload", spec, wait=True)
                    assert reply["status"] == "done"
                    payloads[name] = schemas.canonical_json(reply["payload"])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((name, exc))

        threads = [
            threading.Thread(target=drive, args=job) for job in jobs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors
        assert len(payloads) == 4

        # Byte-for-byte against direct (serverless) runs.
        from repro.hmc.config import HMCConfig
        from repro.workloads.registry import WORKLOADS

        for name, spec in jobs:
            frontend = WORKLOADS.get(spec["workload"])
            params = frontend.resolve_params(spec["params"])
            stats = frontend.run(HMCConfig.cfg_4link_4gb(), params)
            direct = schemas.canonical_json(
                {
                    "workload": spec["workload"],
                    "warm": frontend.accepts_sim,
                    "fingerprint": WORKLOADS.fingerprint(spec["workload"]),
                    "stats": schemas.encode_value(stats),
                }
            )
            assert payloads[name] == direct, spec["workload"]


class TestDrain:
    def test_drain_checkpoints_and_refuses(self, make_server, serve_dirs):
        _sock, state, _cache = serve_dirs
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            name = client.create()
            client.submit(name, "workload", _mutex(), wait=True)
        server.stop()
        assert not server.config.socket_path.exists()
        assert read_journal(state / name)["checkpointed_through"] == 1
        assert (state / name / "checkpoint.json").exists()

    def test_auto_names_skip_resumed_sessions(self, make_server):
        # The counter restarts at 0 with the server; auto-naming must
        # skip names taken by resumed handles and on-disk directories.
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            first = client.create()
        server.stop()
        revived = make_server()
        with ServeClient(str(revived.config.socket_path)) as client:
            second = client.create()
            assert second != first

    def test_restart_resumes_sessions(self, make_server):
        server = make_server()
        with ServeClient(str(server.config.socket_path)) as client:
            name = client.create()
            client.submit(name, "workload", _mutex(), wait=True)
        server.stop()

        revived = make_server()
        with ServeClient(str(revived.config.socket_path)) as client:
            snap = client.stat(name)["snapshot"]
            assert snap["resumed"] is True
            assert snap["done"] == 1
            # The revived warm session still accepts work.
            reply = client.submit(name, "workload", _mutex(), wait=True)
            assert reply["status"] == "done"
