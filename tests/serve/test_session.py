"""SimSession: journal durability, fences, validation, resume."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServeError
from repro.serve import session as session_module
from repro.serve.session import SessionState, SimSession, build_session_config
from tests.serve.conftest import read_journal


def _mutex(threads=2):
    return {"workload": "mutex", "params": {"threads": threads}}


def make_session(root, name="s1", **kwargs):
    return SimSession(name, "4link_4gb", root=root, **kwargs)


class TestConfig:
    def test_named_configs(self):
        assert build_session_config("4link_4gb", {}).num_links == 4
        assert build_session_config("8link_8gb", {}).num_links == 8

    def test_unknown_config(self):
        with pytest.raises(ServeError) as exc:
            build_session_config("16link", {})
        assert exc.value.code == "bad_request"

    def test_unknown_seam(self):
        with pytest.raises(ServeError) as exc:
            build_session_config("4link_4gb", {"alu": "fast"})
        assert exc.value.code == "bad_request"

    def test_unknown_impl(self):
        with pytest.raises(ServeError) as exc:
            build_session_config("4link_4gb", {"xbar": "warp-drive"})
        assert exc.value.code == "bad_request"

    def test_component_override_applies(self):
        cfg = build_session_config("4link_4gb", {"xbar": "ideal"})
        assert cfg.xbar == "ideal"


class TestJournal:
    def test_accept_journals_before_execution(self, tmp_path):
        session = make_session(tmp_path)
        seq = session.accept("workload", _mutex())
        assert seq == 1
        doc = read_journal(session.root)
        assert doc["submissions"][0]["status"] == "pending"
        assert doc["checkpointed_through"] == 0

    def test_execute_fences_and_stores_result(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        rec = session.execute_next()
        assert rec.status == "done"
        assert session.checkpointed_through == 1
        assert session.checkpoint_path.exists()
        payload = session.load_result(1)
        assert payload["workload"] == "mutex"
        assert payload["warm"] is True

    def test_execute_next_empty(self, tmp_path):
        assert make_session(tmp_path).execute_next() is None

    def test_checkpoint_every_spaces_fences(self, tmp_path):
        session = make_session(tmp_path, checkpoint_every=2)
        for _ in range(3):
            session.accept("workload", _mutex())
        session.execute_next()
        # seq 1 is not a fence multiple, but submissions remain pending,
        # so no fence yet.
        assert session.checkpointed_through == 0
        session.execute_next()
        assert session.checkpointed_through == 2
        session.execute_next()  # last pending -> forced fence
        assert session.checkpointed_through == 3

    def test_waited_submissions_fence_each_at_any_checkpoint_every(self, tmp_path):
        # The journal drains after every waited submission, and a drained
        # journal fences: N spaces fences only within a backlog.
        session = make_session(tmp_path, checkpoint_every=5)
        for _ in range(3):
            seq = session.accept("workload", _mutex())
            session.execute_next()
            assert session.checkpointed_through == seq

    def test_failed_submission_does_not_kill_session(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("workload", {"workload": "mutex", "params": {"threads": 2, "max_cycles": 1}})
        rec = session.execute_next()
        assert rec.status == "failed"
        assert rec.error
        # The session fenced anyway and still runs new work.
        session.accept("workload", _mutex())
        assert session.execute_next().status == "done"

    def test_sweep_bad_params_fail_record_not_session(self, tmp_path):
        # task_spec(**params) with an unknown key raises TypeError —
        # outside the old (HMCSimError, ValueError) net — which used to
        # escape execute_next and leave the record pending forever.
        session = make_session(tmp_path)
        session.accept(
            "sweep",
            {"workload": "mutex", "threads": [2], "params": {"bogus": 1}},
        )
        rec = session.execute_next()
        assert rec.status == "failed"
        assert "TypeError" in rec.error
        session.accept("workload", _mutex())
        assert session.execute_next().status == "done"

    def test_result_write_error_fails_the_head_once(self, tmp_path, monkeypatch):
        # A fence error used to escape execute_next, and the server's
        # fault barrier then failed the *next* submission unrun.
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        session.accept("workload", _mutex())
        real_write = session_module.atomic_write_text
        raised = []

        def flaky_write(path, text):
            if path.name.startswith("result-") and not raised:
                raised.append(path.name)
                raise OSError(28, "No space left on device")
            real_write(path, text)

        monkeypatch.setattr(session_module, "atomic_write_text", flaky_write)
        first = session.execute_next()
        assert (first.seq, first.status) == (1, "failed")
        assert first.error.startswith("OSError")
        assert session.load_result(1) is None
        cycle = session.sim.cycle
        second = session.execute_next()
        assert (second.seq, second.status) == (2, "done")
        assert session.sim.cycle > cycle
        assert session.execute_next() is None
        statuses = [
            (doc["seq"], doc["status"])
            for doc in map(json.loads, session.journal_path.read_text().splitlines())
            if "status" in doc
        ]
        assert statuses == [(1, "failed"), (2, "done")]
        assert session.checkpointed_through == 2

    def test_accept_refused_while_draining(self, tmp_path):
        session = make_session(tmp_path)
        session.drain()
        with pytest.raises(ServeError) as exc:
            session.accept("workload", _mutex())
        assert exc.value.code == "draining"


class TestValidation:
    def test_unknown_workload(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError) as exc:
            session.accept("workload", {"workload": "does-not-exist"})
        assert exc.value.code == "bad_request"

    def test_raw_unknown_command(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError) as exc:
            session.accept("raw", {"requests": [{"cmd": "FROB", "addr": 0}]})
        assert exc.value.code == "bad_request"

    def test_raw_missing_addr(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError):
            session.accept("raw", {"requests": [{"cmd": "RD64"}]})

    @pytest.mark.parametrize(
        "line",
        [
            {"cmd": "RD16", "addr": 0, "data": "zz"},
            {"cmd": "WR16", "addr": 0, "data": "00"},
            {"cmd": "RD16", "addr": 0, "data": 5},
            {"cmd": "RD16", "addr": 0, "link": "x"},
            {"cmd": "RD16", "addr": -5},
            # A CMC code: its length is the registration's, but no packet
            # carries 300 bytes or reaches past the 34-bit address.
            {"cmd": "CMC125", "addr": 0, "data": "00" * 300},
            {"cmd": "CMC125", "addr": 1 << 34},
        ],
        ids=["data-not-hex", "data-wrong-size", "data-not-str", "link-not-int",
             "addr-negative", "cmc-data-too-long", "cmc-addr-too-wide"],
    )
    def test_malformed_raw_line_refused_at_accept(self, tmp_path, line):
        # Each of these used to be acked, journaled, executed to a
        # failed record and fenced with a checkpoint.
        good = {"cmd": "RD16", "addr": 0}
        session = make_session(tmp_path)
        session.accept("raw", {"requests": [good]})
        journal = session.journal_path.read_bytes()
        with pytest.raises(ServeError) as exc:
            session.accept("raw", {"requests": [good, line]})
        assert exc.value.code == "bad_request"
        assert "request 1" in str(exc.value)  # names the offending line
        assert session.journal_path.read_bytes() == journal
        assert session.snapshot()["submissions"] == 1

    def test_raw_bad_max_cycles_refused_at_accept(self, tmp_path):
        session = make_session(tmp_path)
        for max_cycles in ("soon", 0, None):
            with pytest.raises(ServeError) as exc:
                session.accept(
                    "raw", {"requests": [{"cmd": "RD16", "addr": 0}], "max_cycles": max_cycles}
                )
            assert exc.value.code == "bad_request"
        assert not session.journal_path.exists()
        assert session.snapshot()["submissions"] == 0

    def test_cmc_raw_line_waits_for_its_registration(self, tmp_path):
        # The request length of a CMC code lives in a registration that
        # an earlier queued submission loads: accept must not demand it.
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        session.accept("raw", {"requests": [{"cmd": "CMC125", "addr": 0x40, "data": "00" * 16}]})
        assert [session.execute_next().status for _ in range(2)] == ["done", "done"]

    def test_sweep_of_a_workload_without_task_spec(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError) as exc:
            session.accept("sweep", {"workload": "ticket", "threads": [2]})
        assert exc.value.code == "bad_request"
        assert "'ticket' cannot be swept" in str(exc.value)

    def test_sweep_bad_threads(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError):
            session.accept("sweep", {"workload": "mutex", "threads": []})
        with pytest.raises(ServeError):
            session.accept("sweep", {"workload": "mutex", "threads": [0]})

    @pytest.mark.parametrize(
        "spec",
        [
            {"workload": "gups", "params": {"threads": 0}},
            {"workload": "mutex", "params": {"threads": "8"}},
            {"workload": "chase", "params": {"length": 0}},
            {"workload": "mutex", "params": {"thraeds": 8}},
        ],
    )
    def test_doomed_params_refused_at_accept(self, tmp_path, spec):
        # Params arrive from the socket: a submission that could only
        # fail is a bad_request refusal, not a journaled failed record.
        session = make_session(tmp_path)
        with pytest.raises(ServeError) as exc:
            session.accept("workload", spec)
        assert exc.value.code == "bad_request"
        assert spec["workload"] in str(exc.value)
        assert session.submissions == []

    def test_rejected_spec_not_journaled(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ServeError):
            session.accept("workload", {"workload": "nope"})
        assert session.submissions == []


class TestKinds:
    def test_raw_stream(self, tmp_path):
        session = make_session(tmp_path)
        session.accept(
            "raw",
            {
                "requests": [
                    {"cmd": "WR64", "addr": 0x1000, "data": "ab" * 64},
                    {"cmd": "RD64", "addr": 0x1000},
                ]
            },
        )
        rec = session.execute_next()
        assert rec.status == "done"
        payload = session.load_result(1)
        assert payload["issued"] == 2
        assert len(payload["responses"]) == 2

    def test_sweep_in_process(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("sweep", {"workload": "mutex", "threads": [2, 4]})
        rec = session.execute_next()
        assert rec.status == "done"
        payload = session.load_result(1)
        assert payload["threads"] == [2, 4]
        assert len(payload["results"]) == 2

    def test_cold_frontend_runs(self, tmp_path):
        # stream builds its own context (accepts_sim=False); the serve
        # layer must not hand it the warm sim.
        session = make_session(tmp_path)
        session.accept(
            "workload",
            {"workload": "stream", "params": {"threads": 2, "blocks_per_thread": 2}},
        )
        rec = session.execute_next()
        assert rec.status == "done"
        assert session.load_result(1)["warm"] is False

    def test_mixed_cmc_families_on_one_warm_sim(self, tmp_path):
        # mutex (125) then ticket (21): the per-code prepare guards must
        # load the second family even though ops already exist.
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        session.accept(
            "workload", {"workload": "ticket", "params": {"threads": 2}}
        )
        assert session.execute_next().status == "done"
        assert session.execute_next().status == "done"


class TestResume:
    def test_load_rewinds_past_fence(self, tmp_path):
        session = make_session(tmp_path, checkpoint_every=10)
        for _ in range(3):
            session.accept("workload", _mutex())
        session.execute_next()
        session.execute_next()
        # Simulate a kill: forget the object, reload from disk.  The
        # fence only covers... nothing (checkpoint_every=10 and work is
        # still pending), so all three rewind to pending.
        loaded = SimSession.load(session.root)
        assert loaded.resumed is True
        assert [r.status for r in loaded.submissions] == ["pending"] * 3

    def test_load_keeps_fenced_results(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        session.execute_next()
        loaded = SimSession.load(session.root)
        assert loaded.checkpointed_through == 1
        assert loaded.submissions[0].status == "done"
        assert loaded.pending() == []

    def test_closed_sessions_stay_closed(self, tmp_path):
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        session.execute_next()
        session.close()
        loaded = SimSession.load(session.root)
        assert loaded.state == SessionState.CLOSED

    def test_failed_submissions_not_replayed(self, tmp_path):
        session = make_session(tmp_path, checkpoint_every=10)
        session.accept("workload", {"workload": "mutex", "params": {"threads": 2, "max_cycles": 1}})
        session.execute_next()
        loaded = SimSession.load(session.root)
        assert loaded.submissions[0].status == "failed"
        assert loaded.pending() == []

    @pytest.mark.parametrize(
        "content", ["[]", '{"version": 5, "config"', '{"version": 5}']
    )
    def test_malformed_checkpoint_is_an_internal_error(self, tmp_path, content):
        # A JSON [] used to surface as a bare AttributeError.
        session = make_session(tmp_path)
        session.accept("workload", _mutex())
        session.execute_next()
        session.checkpoint_path.write_text(content)
        with pytest.raises(ServeError, match="cannot load session at.*checkpoint.json") as exc:
            SimSession.load(session.root)
        assert exc.value.code == "internal"
