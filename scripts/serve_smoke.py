#!/usr/bin/env python
"""End-to-end smoke for the simulation service (the CI serve-smoke job).

Drives ``repro serve`` as a real subprocess and asserts the service
contract from the outside:

1. Four concurrent clients, mixed workloads, results byte-for-byte
   identical (canonical JSON) to direct, serverless runs.
2. Over-quota submission refused with a structured ``quota_exceeded``
   error; the session stays healthy.
3. SIGTERM with journaled-but-unexecuted work: clean exit (code 0)
   with a checkpoint per live session; a restarted server resumes
   from the checkpoints and finishes the journal tail with
   byte-identical results.
4. SIGKILL with work in flight (no drain, no final fence): a server
   restarted on the same ``--state-dir`` recovers every acked
   submission from the journal, and the results are byte-identical to
   an uninterrupted run.

Exit code 0 = every check passed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.errors import ServeError
from repro.hmc.config import HMCConfig
from repro.serve import schemas
from repro.serve.client import ServeClient
from repro.serve.session import SimSession
from repro.workloads.registry import WORKLOADS

JOBS = [
    ("c1", {"workload": "mutex", "params": {"threads": 2}}),
    ("c2", {"workload": "mutex", "params": {"threads": 4}}),
    ("c3", {"workload": "ticket", "params": {"threads": 2}}),
    ("c4", {"workload": "barrier", "params": {"threads": 2}}),
]

#: The journal tail left pending across the SIGTERM kill.
TAIL = [
    ("workload", {"workload": "ticket", "params": {"threads": 3}}),
    ("workload", {"workload": "mutex", "params": {"threads": 3}}),
]

#: Submitted to c2 without waiting, then the server is SIGKILLed.
KILL_TAIL = [
    ("workload", {"workload": "mutex", "params": {"threads": n}})
    for n in (8, 16, 24, 32, 40)
]


def direct_payload(spec) -> str:
    """What a serverless run of ``spec`` canonicalises to."""
    frontend = WORKLOADS.get(spec["workload"])
    params = frontend.resolve_params(spec["params"])
    stats = frontend.run(HMCConfig.cfg_4link_4gb(), params)
    return schemas.canonical_json(
        {
            "workload": spec["workload"],
            "warm": frontend.accepts_sim,
            "fingerprint": WORKLOADS.fingerprint(spec["workload"]),
            "stats": schemas.encode_value(stats),
        }
    )


def start_server(sock: Path, state: Path, *, max_requests: int) -> subprocess.Popen:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", str(sock),
            "--state-dir", str(state),
            "--max-requests", str(max_requests),
            "--checkpoint-every", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60
    while not sock.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            out = proc.communicate()[0] if proc.poll() is not None else ""
            raise SystemExit(f"server failed to come up:\n{out}")
        time.sleep(0.05)
    return proc


def stop_server(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    out = proc.communicate(timeout=120)[0]
    assert proc.returncode == 0, (
        f"server exited {proc.returncode} on SIGTERM:\n{out}"
    )
    return out


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    if not ok:
        raise SystemExit(f"serve smoke failed at: {label} {detail}")


def check_resumed(sock: Path, tmp: Path, name: str, specs, how: str) -> None:
    """Session ``name`` finishes its journal after a restart, and every
    result equals the same sequence on a plain, uninterrupted warm
    session (later submissions see the earlier ones' device state, so
    per-spec cold runs are not the right baseline)."""
    with ServeClient(str(sock), timeout=300.0) as client:
        deadline = time.monotonic() + 300
        while True:
            snap = client.stat(name)["snapshot"]
            if snap["pending"] == 0:
                break
            if time.monotonic() > deadline:
                check(f"{how}: resumed tail finished", False, str(snap))
            time.sleep(0.1)
        check(f"{how}: session resumed", snap["resumed"] is True)
        check(
            f"{how}: every acked submission executed after restart",
            snap["done"] == len(specs) and snap["failed"] == 0,
            str(snap),
        )
        history = {
            m["submission"]: m["payload"]
            for m in client.attach(name)["history"]
        }
    ref = SimSession(f"{name}-ref", "4link_4gb", root=tmp)
    for kind, spec in specs:
        ref.accept(kind, spec)
    while ref.execute_next() is not None:
        pass
    for seq in range(1, len(specs) + 1):
        check(
            f"{how}: result {seq} byte-identical to uninterrupted run",
            schemas.canonical_json(history[seq])
            == schemas.canonical_json(ref.load_result(seq)),
        )


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    sock, state = tmp / "sim.sock", tmp / "state"
    # Quota 3 = one submission per client up front + the 2-deep tail on
    # c1; the probe beyond that must be refused.
    proc = start_server(sock, state, max_requests=3)
    print(f"server up on {sock}")

    # --- 1. four concurrent clients, byte-for-byte vs direct runs ---
    payloads, errors = {}, []

    def drive(name, spec):
        try:
            with ServeClient(str(sock), timeout=300.0) as client:
                session = client.create(session=name)
                reply = client.submit(session, "workload", spec, wait=True)
                assert reply["status"] == "done", reply
                payloads[name] = schemas.canonical_json(reply["payload"])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"{name}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=drive, args=job) for job in JOBS]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    check("4 concurrent clients completed", not errors, "; ".join(errors))
    for name, spec in JOBS:
        check(
            f"{name} ({spec['workload']}) byte-identical to direct run",
            payloads[name] == direct_payload(spec),
        )

    # --- 2. over-quota refused with a structured error ---
    with ServeClient(str(sock), timeout=300.0) as client:
        for kind, spec in TAIL:
            client.submit("c1", kind, spec)  # journaled, may stay pending
        try:
            client.submit("c1", "workload", JOBS[0][1])
            check("over-quota submission refused", False)
        except ServeError as exc:
            check(
                "over-quota submission refused",
                exc.code == "quota_exceeded",
                f"code={exc.code}",
            )
        snap = client.stat("c1")["snapshot"]
        check("session healthy after refusal", snap["state"] in ("created", "running"))

    # --- 3. SIGTERM: clean exit, checkpoints on disk ---
    stop_server(proc)
    check("socket removed on drain", not sock.exists())
    for name, _spec in JOBS:
        check(
            f"{name} checkpointed",
            (state / name / "checkpoint.json").exists()
            and (state / name / "meta.json").exists(),
        )

    # --- 4. restart: resume from checkpoints, finish the tail ---
    proc = start_server(sock, state, max_requests=8)
    check_resumed(
        sock, tmp, "c1", [("workload", JOBS[0][1])] + TAIL, "SIGTERM"
    )

    # --- 5. SIGKILL with work in flight, restart on the same state ---
    with ServeClient(str(sock), timeout=300.0) as client:
        for kind, spec in KILL_TAIL:
            client.submit("c2", kind, spec)  # acked = journaled
    proc.kill()
    proc.communicate(timeout=120)
    check("server died on SIGKILL", proc.returncode == -signal.SIGKILL)
    journal = [
        json.loads(line)
        # [:-1]: what follows the last newline is empty or a torn line
        for line in (state / "c2" / "journal.jsonl").read_text().split("\n")[:-1]
    ]
    accepted = sum("kind" in doc for doc in journal)
    check(
        "every acked submission is in the journal",
        accepted == 1 + len(KILL_TAIL),
        f"{2 * accepted - len(journal)} unexecuted at the kill",
    )
    sock.unlink()  # nobody drained: the stale socket file is still there
    proc = start_server(sock, state, max_requests=8)
    check_resumed(
        sock, tmp, "c2", [("workload", JOBS[1][1])] + KILL_TAIL, "SIGKILL"
    )
    stop_server(proc)
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
