"""E4 — Table V / Figure 4: the CMC mutex operation definitions.

Loads the three mutex plugins into a live context, regenerates
Table V from their actual registrations, and runs one full
lock / trylock / unlock round-trip sequence through the pipeline.
(No sweep here, so ``REPRO_JOBS`` has nothing to fan out — the table
is a single in-process round trip by construction.)
"""

from conftest import emit

from repro.analysis.tables import render_table5
from repro.cmc_ops.mutex import (
    build_lock,
    build_trylock,
    build_unlock,
    decode_lock_response,
    init_lock,
    load_mutex_ops,
)
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim

LOCK = 0x40


def _roundtrip(sim, pkt):
    sim.send(pkt)
    while True:
        sim.clock()
        rsp = sim.recv()
        if rsp is not None:
            return rsp


def _mutex_sequence(sim, tag_base):
    init_lock(sim, LOCK)
    r1 = _roundtrip(sim, build_lock(sim, LOCK, tag_base, tid=1))
    r2 = _roundtrip(sim, build_trylock(sim, LOCK, tag_base + 1, tid=2))
    r3 = _roundtrip(sim, build_unlock(sim, LOCK, tag_base + 2, tid=1))
    return (
        decode_lock_response(r1.data),
        decode_lock_response(r2.data),
        decode_lock_response(r3.data),
    )


def test_table5_mutex_ops(artifact_dir):
    sim = HMCSim(HMCConfig.cfg_4link_4gb())
    load_mutex_ops(sim)

    lock_ok, trylock_owner, unlock_ok = _mutex_sequence(sim, tag_base=10)
    assert lock_ok == 1  # hmc_lock acquired the free lock
    assert trylock_owner == 1  # hmc_trylock reports holder tid 1
    assert unlock_ok == 1  # owner unlock succeeds

    text = render_table5(sim.cmc)
    text += (
        "\n\nFigure 4 lock structure: bits[63:0]=lock value, "
        "bits[127:64]=owner thread/task id (16-byte block)."
    )
    emit(artifact_dir, "table5_mutex_ops", text)
