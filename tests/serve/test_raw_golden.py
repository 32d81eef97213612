"""Raw submissions pinned byte for byte.

Each stream runs as one ``raw`` submission on a fresh session; the
golden holds its result payload (every response's data and ``cycle``),
the final ``sim.cycle`` and ``sim.stats()`` after the fence drain.  The
streams cover a dependent write/read pair, 700 RD64 on one link (the
crossbar queue fills and sends stall) and a seeded 3,000-request mix
whose posted writes hand their tags straight back.

``PYTHONPATH=src python tests/serve/test_raw_golden.py`` REWRITES the
golden; only after an intended change of simulated behaviour.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve.schemas import canonical_json
from repro.serve.session import SimSession

GOLDEN = Path(__file__).with_name("golden_raw.json")


def _mixed(count: int, seed: int) -> list:
    """RD16/RD128/WR16/WR64/P_WR16/INC8 over a small footprint, so
    addresses repeat, with an explicit ``link`` on some requests."""
    rng = random.Random(seed)
    sizes = {"RD16": 0, "RD128": 0, "WR16": 16, "WR64": 64, "P_WR16": 16, "INC8": 0}
    out = []
    for _ in range(count):
        cmd = rng.choice(sorted(sizes))
        rq = {"cmd": cmd, "addr": rng.randrange(1 << 12) * 16}
        if sizes[cmd]:
            rq["data"] = bytes(rng.randrange(256) for _ in range(sizes[cmd])).hex()
        if rng.random() < 0.25:
            rq["link"] = rng.randrange(6)
        out.append(rq)
    return out


#: name -> (components, requests)
STREAMS = {
    "pair": (
        {},
        [
            {"cmd": "WR64", "addr": 0x2000, "data": "5a" * 64},
            {"cmd": "RD64", "addr": 0x2000},
        ],
    ),
    "rd64_one_link": (
        {},
        [{"cmd": "RD64", "addr": i * 64, "link": 0} for i in range(700)],
    ),
    "rd64_one_link_vector": (
        {"xbar": "vector"},
        [{"cmd": "RD64", "addr": i * 64, "link": 0} for i in range(700)],
    ),
    "mixed": ({}, _mixed(3000, seed=43)),
}


def run_stream(root: Path, name: str) -> dict:
    components, requests = STREAMS[name]
    session = SimSession(name, "4link_4gb", components, root=root)
    session.accept("raw", {"requests": requests})
    rec = session.execute_next()
    assert rec.status == "done", rec.error
    payload = session.load_result(rec.seq)
    return {
        "payload_sha256": hashlib.sha256(
            canonical_json(payload).encode()
        ).hexdigest(),
        "payload": payload if name == "pair" else None,
        "responses": len(payload["responses"]),
        "cycle": session.sim.cycle,
        "stats": json.loads(json.dumps(session.sim.stats())),
    }


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_raw_stream_matches_golden(tmp_path, name):
    if STREAMS[name][0].get("xbar") == "vector":
        pytest.importorskip("numpy")
    assert run_stream(tmp_path, name) == json.loads(GOLDEN.read_text())[name]


def test_raw_stream_over_budget_fails_internal(tmp_path):
    requests = STREAMS["rd64_one_link"][1]
    session = SimSession("over", "4link_4gb", root=tmp_path)
    with pytest.raises(ServeError) as exc:
        session._run_raw({"requests": requests, "max_cycles": 50})
    assert exc.value.code == "internal"
    assert str(exc.value).startswith("raw stream exceeded max_cycles")
    # As a submission: a failed record, and the session fences on.
    session.sim.drain()
    session._reap_orphans()
    session.accept("raw", {"requests": requests, "max_cycles": 50})
    rec = session.execute_next()
    assert rec.status == "failed"
    assert rec.error.startswith("ServeError: raw stream exceeded max_cycles")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run_stream(Path(tmp), name) for name in sorted(STREAMS)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
