"""The session directory as a durable record: crash boundaries, O(1)
writes, the refusal of the v1 layout, and journal damage.

"Kill" here is a process kill: the directory is copied at a write
boundary and loaded as a restarted server would.  Nothing below times
anything.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve.session import SessionState, SimSession
from tests.serve.conftest import read_journal

DATAPATHS = [
    pytest.param({"xbar": "queued"}, id="queued"),
    pytest.param({"xbar": "vector"}, id="vector"),
]

#: Two CMC families, a raw stream, a cold frontend and a submission that
#: fails (partial side effects, no result file).
SUBMISSIONS = [
    ("workload", {"workload": "mutex", "params": {"threads": 3}}),
    ("workload", {"workload": "ticket", "params": {"threads": 2}}),
    ("workload", {"workload": "mutex", "params": {"threads": 2, "max_cycles": 1}}),
    (
        "raw",
        {
            "requests": [
                {"cmd": "WR64", "addr": 0x2000, "data": "5a" * 64},
                {"cmd": "RD64", "addr": 0x2000},
            ]
        },
    ),
    ("workload", {"workload": "stream", "params": {"threads": 2, "blocks_per_thread": 2}}),
    ("workload", {"workload": "mutex", "params": {"threads": 2}}),
]

#: a = accept the next submission, x = execute the head.  With
#: checkpoint_every=2 this yields fenced and unfenced completions,
#: forced fences (queue empty) and accepts racing ahead of execution.
SCRIPT = "aaxaxxaaxxax"


def _mutex() -> dict:
    return {"workload": "mutex", "params": {"threads": 2}}


def _durable_files(root: Path) -> dict:
    """What a client can observe: every result payload + the last fence."""
    names = [f"result-{seq}.json" for seq in range(1, len(SUBMISSIONS) + 1)]
    return {
        name: (root / name).read_bytes() if (root / name).exists() else None
        for name in names + ["checkpoint.json"]
    }


def _run_script(session: SimSession) -> None:
    todo = iter(SUBMISSIONS)
    for step in SCRIPT:
        if step == "a":
            session.accept(*next(todo))
        else:
            assert session.execute_next() is not None


@pytest.mark.parametrize("components", DATAPATHS)
def test_kill_at_every_write_boundary(tmp_path, monkeypatch, components):
    if components["xbar"] == "vector":
        pytest.importorskip("numpy")

    ref = SimSession("ref", "4link_4gb", components, root=tmp_path, checkpoint_every=2)
    _run_script(ref)
    assert [r.status for r in ref.submissions] == [
        "done", "done", "failed", "done", "done", "done",
    ]
    reference = _durable_files(ref.root)
    assert reference["result-3.json"] is None and reference["checkpoint.json"]

    # Record the victim's directory around every durable write: before
    # and after each os.replace (header, result, checkpoint — "before"
    # has the finished temp file lying beside the old target), after
    # each journal append, and with that append only half on disk.
    victim_root = tmp_path / "victim"
    snaps = tmp_path / "snaps"
    labels = []

    def snapshot(label: str) -> Path:
        labels.append(label)
        return Path(shutil.copytree(victim_root, snaps / f"{len(labels):03d}"))

    real_replace = os.replace
    real_append = SimSession._append_journal

    def replace(src, dst):
        if Path(dst).parent == victim_root:
            snapshot(f"before {Path(dst).name}")
        real_replace(src, dst)
        if Path(dst).parent == victim_root:
            snapshot(f"after {Path(dst).name}")

    def append(self, line):
        real_append(self, line)
        if self.root == victim_root:
            snapshot("after journal line")
            torn = snapshot("torn journal line") / "journal.jsonl"
            torn.write_bytes(torn.read_bytes()[: -(len(line.encode()) // 2)])

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(SimSession, "_append_journal", append)
    victim = SimSession("victim", "4link_4gb", components, root=tmp_path, checkpoint_every=2)
    _run_script(victim)
    monkeypatch.undo()
    assert _durable_files(victim_root) == reference
    # 1 header + 5 results + 12 journal lines + >=3 checkpoints, twice each.
    assert len(labels) >= 2 * (1 + 5 + 12 + 3)
    for name in ("meta.json", "checkpoint.json", "result-1.json"):
        assert f"before {name}" in labels and f"after {name}" in labels

    for number, label in enumerate(labels, 1):
        snap = snaps / f"{number:03d}"
        if not (snap / "meta.json").exists():
            continue  # killed inside create: a restarted server sees no session
        revived = SimSession.load(snap, checkpoint_every=2)
        # Accepts that never completed were never acked: the client
        # retries them.
        for kind, spec in SUBMISSIONS[len(revived.submissions):]:
            revived.accept(kind, spec)
        while revived.execute_next() is not None:
            pass
        assert _durable_files(snap) == reference, f"snapshot {number}: {label}"
        assert read_journal(snap)["checkpointed_through"] == len(SUBMISSIONS)


@pytest.mark.parametrize("with_journal", [False, True], ids=["inline-only", "killed-mid-upgrade"])
def test_v1_directory_is_refused(tmp_path, with_journal):
    # The layout PR 10 wrote: journal and fence label inline in
    # meta.json (a kill during PR 13's upgrade left journal.jsonl
    # beside it).  It must not load as an empty session.
    session = SimSession("s", "4link_4gb", root=tmp_path)
    session.accept("workload", _mutex())
    session.execute_next()
    header = json.loads(session.meta_path.read_text())
    header.update(
        meta_version=1,
        checkpointed_through=1,
        submissions=read_journal(session.root)["submissions"],
    )
    session.meta_path.write_text(json.dumps(header))
    if not with_journal:
        session.journal_path.unlink()
    with pytest.raises(ServeError) as exc:
        SimSession.load(session.root)
    assert exc.value.code == "internal"
    assert "meta_version 1" in str(exc.value)


def test_corrupt_middle_line_is_refused(tmp_path):
    session = SimSession("s", "4link_4gb", root=tmp_path)
    for _ in range(3):
        session.accept("workload", _mutex())
    lines = session.journal_path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
    session.journal_path.write_text("".join(lines))
    with pytest.raises(ServeError) as exc:
        SimSession.load(session.root)
    assert exc.value.code == "internal"
    assert "journal.jsonl line 2" in str(exc.value)


def test_torn_final_line_is_dropped(tmp_path):
    session = SimSession("s", "4link_4gb", root=tmp_path)
    for _ in range(3):
        session.accept("workload", _mutex())
    text = session.journal_path.read_text()
    session.journal_path.write_text(text[:-20])
    loaded = SimSession.load(session.root)
    assert [r.seq for r in loaded.submissions] == [1, 2]
    assert loaded.accept("workload", _mutex()) == 3
    assert len(read_journal(session.root)["submissions"]) == 3


def test_truncated_checkpoint_is_a_structured_refusal(tmp_path):
    # save_checkpoint replaces atomically, so only damage from outside
    # can produce this; it must still not escape as a JSONDecodeError
    # (SimServer start-up loads every session directory).
    session = SimSession("s", "4link_4gb", root=tmp_path)
    session.accept("workload", _mutex())
    session.execute_next()
    data = session.checkpoint_path.read_bytes()
    session.checkpoint_path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ServeError) as exc:
        SimSession.load(session.root)
    assert exc.value.code == "internal"


def test_v5_checkpoint_is_refused_by_version(tmp_path):
    # A directory fenced before checkpoints became idle-only (v6) does
    # not resume: its v5 checkpoint.json is refused by version, not
    # loaded with whatever in-flight keys it carries dropped.
    session = SimSession("s", "4link_4gb", root=tmp_path)
    session.accept("workload", _mutex())
    session.execute_next()
    doc = json.loads(session.checkpoint_path.read_text())
    doc["version"] = 5
    doc["config"]["watchdog"] = doc["watchdog"] = doc["oracle"] = None
    session.checkpoint_path.write_text(json.dumps(doc))
    with pytest.raises(ServeError) as exc:
        SimSession.load(session.root)
    assert exc.value.code == "internal"
    assert "checkpoint.json has version 5" in str(exc.value)

def test_writes_per_submission_do_not_grow_with_the_session(tmp_path, monkeypatch):
    session = SimSession("s", "4link_4gb", root=tmp_path)
    header = session.meta_path.stat()

    written = []  # (file name, bytes) of every atomic replace
    real_replace = os.replace

    def replace(src, dst):
        written.append((Path(dst).name, os.path.getsize(src)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)

    accept_bytes, status_bytes, replaced_bytes = [], [], []
    for seq in range(1, 201):
        before = session.journal_path.stat().st_size if seq > 1 else 0
        assert session.accept("workload", _mutex()) == seq
        mid = session.journal_path.stat().st_size
        del written[:]
        assert session.execute_next().status == "done"
        after = session.journal_path.stat().st_size
        assert sorted(name for name, _ in written) == [
            "checkpoint.json", f"result-{seq}.json",
        ]
        accept_bytes.append(mid - before)
        status_bytes.append(after - mid)
        replaced_bytes.append(sum(size for _, size in written))

    # The header is the file created with the session: never rewritten.
    now = session.meta_path.stat()
    assert (now.st_ino, now.st_mtime_ns) == (header.st_ino, header.st_mtime_ns)
    assert "submissions" not in json.loads(session.meta_path.read_text())

    # One line per accept and one per completion...
    journal = session.journal_path.read_text()
    assert journal.count("\n") == 400
    assert len(read_journal(session.root)["submissions"]) == 200
    # ...whose size depends on seq only through its digits,
    for sizes in (accept_bytes, status_bytes):
        assert len(set(sizes[99:])) == 1  # seq 100..200: three digits
        assert sizes[199] - sizes[0] == 2
    # and the result + checkpoint bytes do not trend with seq either
    # (they vary by a few digits of cycle/counter values).
    assert max(replaced_bytes[100:]) < 1.02 * max(replaced_bytes[:100])


def test_closed_session_survives_reload(tmp_path):
    session = SimSession("s", "4link_4gb", root=tmp_path)
    session.accept("workload", _mutex())
    session.execute_next()
    session.close()
    assert json.loads(session.meta_path.read_text())["state"] == "closed"
    loaded = SimSession.load(session.root)
    assert loaded.state == SessionState.CLOSED
    assert loaded.snapshot()["done"] == 1
