"""Satellite: the full session lifecycle, kill-and-resume, both datapaths.

create → submit → stream → checkpoint → kill the server → restart →
resume — and the resumed run's results must be **bit-identical** (on
the canonical JSON form) to an uninterrupted run, on the scalar object
datapath and on the vector (numpy flight-table) datapath alike.
"""

from __future__ import annotations

import pytest

from repro.serve import schemas
from repro.serve.client import ServeClient
from repro.serve.session import SimSession
from tests.serve.conftest import read_journal

DATAPATHS = [
    pytest.param({}, id="scalar"),
    pytest.param({"xbar": "vector"}, id="vector"),
]

#: Mixed CMC families + a raw stream: exercises the warm-state capture
#: (execution counters, memory, tags) that resume must reproduce.
SUBMISSIONS = [
    ("workload", {"workload": "mutex", "params": {"threads": 3}}),
    ("workload", {"workload": "ticket", "params": {"threads": 2}}),
    (
        "raw",
        {
            "requests": [
                {"cmd": "WR64", "addr": 0x2000, "data": "5a" * 64},
                {"cmd": "RD64", "addr": 0x2000},
            ]
        },
    ),
    ("workload", {"workload": "mutex", "params": {"threads": 2}}),
]


def _skip_unless_available(components) -> None:
    if components.get("xbar") == "vector":
        pytest.importorskip("numpy")


def _canonical_results(session: SimSession) -> list:
    return [
        schemas.canonical_json(session.load_result(rec.seq))
        for rec in session.submissions
    ]


@pytest.mark.parametrize("components", DATAPATHS)
def test_kill_and_resume_bit_identical(tmp_path, components):
    _skip_unless_available(components)

    # Uninterrupted reference run.
    ref = SimSession(
        "ref", "4link_4gb", components, root=tmp_path, checkpoint_every=2
    )
    for kind, spec in SUBMISSIONS:
        ref.accept(kind, spec)
    while ref.execute_next() is not None:
        pass
    reference = _canonical_results(ref)
    assert all(r.status == "done" for r in ref.submissions)

    # Interrupted run: journal everything, execute only 3 of 4, then
    # "kill" the process (drop the object — no drain, no final fence).
    # checkpoint_every=2 means the checkpoint covers seq 1-2 only, so
    # seq 3 finished but its effects postdate the fence.
    victim = SimSession(
        "victim", "4link_4gb", components, root=tmp_path, checkpoint_every=2
    )
    for kind, spec in SUBMISSIONS:
        victim.accept(kind, spec)
    for _ in range(3):
        victim.execute_next()
    assert victim.checkpointed_through == 2
    del victim

    # Restart: restore the checkpoint, re-execute everything past it.
    revived = SimSession.load(tmp_path / "victim", checkpoint_every=2)
    assert revived.resumed is True
    assert [r.seq for r in revived.pending()] == [3, 4]
    while revived.execute_next() is not None:
        pass

    assert _canonical_results(revived) == reference


@pytest.mark.parametrize("components", DATAPATHS)
def test_server_restart_resumes_pending_work(tmp_path, components, make_server):
    """Same contract through the server: kill with work still queued."""
    _skip_unless_available(components)

    # Reference payloads from a plain session.
    ref = SimSession("ref", "4link_4gb", components, root=tmp_path)
    for kind, spec in SUBMISSIONS:
        ref.accept(kind, spec)
    while ref.execute_next() is not None:
        pass
    reference = _canonical_results(ref)

    server = make_server(checkpoint_every=2)
    sock = str(server.config.socket_path)
    with ServeClient(sock, timeout=300.0) as client:
        name = client.create(session="lifecycle", components=components or None)
        for kind, spec in SUBMISSIONS[:2]:
            client.submit(name, kind, spec, wait=True)
        # Journal the tail without waiting, then pull the plug: the
        # drain fences whatever finished; the rest survives as journal.
        for kind, spec in SUBMISSIONS[2:]:
            client.submit(name, kind, spec)
    server.stop()

    state = server.config.state_dir
    journal = read_journal(state / "lifecycle")
    assert len(journal["submissions"]) == 4  # all journaled durably

    revived = make_server(checkpoint_every=2)
    with ServeClient(str(revived.config.socket_path), timeout=300.0) as client:
        # The resumed journal tail re-executes in the background; poll
        # until everything lands.
        import time

        deadline = time.monotonic() + 300
        while True:
            snap = client.stat("lifecycle")["snapshot"]
            if snap["done"] + snap["failed"] == 4:
                break
            assert time.monotonic() < deadline, snap
            time.sleep(0.05)
        assert snap["resumed"] is True
        assert snap["done"] == 4
        assert snap["failed"] == 0

        reply = client.attach("lifecycle")
        history = {m["submission"]: m["payload"] for m in reply["history"]}
    assert [
        schemas.canonical_json(history[seq]) for seq in sorted(history)
    ] == reference
