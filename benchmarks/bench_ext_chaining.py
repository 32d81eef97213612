"""E18 — Extension: chained-cube topologies (the HMC-Sim 1.0 feature).

HMC-Sim 1.0 could "chain multiple HMC devices together in a multitude
of different topologies" (§II).  This experiment quantifies the cost
and benefit of chaining under the 2.0 packet formats:

* **latency**: a remote access pays ``hop_cycles`` per hop each way on
  top of the 3-cycle local round trip — measured per chain distance;
* **capacity/locality**: a windowed workload whose footprint is spread
  across all cubes versus pinned to the far cube — locality-aware
  placement recovers most of the chain penalty.
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim

DEVS = 4


def _remote_latency(sim, target_cub):
    pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0x100, target_cub, cub=target_cub)
    sim.send(pkt, dev=0)
    start = sim.cycle
    while True:
        sim.clock()
        if sim.recv(dev=0) is not None:
            return sim.cycle - start


def _burst_cycles(sim, cubs):
    """Issue 32 reads spread over the given cube list; cycles to drain."""
    start = sim.cycle
    for i in range(32):
        cub = cubs[i % len(cubs)]
        pkt = sim.build_memrequest(
            hmc_rqst_t.RD16, 0x1000 + i * 64, i, cub=cub
        )
        while sim.send(pkt, dev=0, link=i % 4).name != "OK":
            sim.clock()
    sim.drain(max_cycles=100_000)
    got = 0
    for link in range(4):
        while sim.recv(dev=0, link=link) is not None:
            got += 1
    assert got == 32
    return sim.cycle - start


def test_ext_chaining(artifact_dir):
    cfg = HMCConfig(num_devs=DEVS, capacity=2)

    sim = HMCSim(cfg)
    hop = sim.topology.hop_cycles

    lat_rows = []
    lats = []
    for cub in range(DEVS):
        lat = _remote_latency(sim, cub)
        lats.append(lat)
        lat_rows.append((cub, cub, lat))
    # Local access keeps the 3-cycle round trip; each hop adds a fixed
    # cost in both directions.
    assert lats[0] == 3
    for cub in range(1, DEVS):
        assert lats[cub] > lats[cub - 1]
    assert lats[1] >= 3 + 2 * hop

    spread = _burst_cycles(HMCSim(cfg), cubs=list(range(DEVS)))
    local = _burst_cycles(HMCSim(cfg), cubs=[0])
    far = _burst_cycles(HMCSim(cfg), cubs=[DEVS - 1])
    assert local < far  # locality matters
    # Spreading is bounded by its farthest cube (hops pipeline), so it
    # sits between the all-local and all-remote placements.
    assert local < spread <= far

    text = f"Chained topology: {DEVS} cubes, {hop} cycles/hop\n\n"
    text += format_table(["target cube", "hops", "round-trip cycles"], lat_rows)
    text += "\n\n32-read burst placement:\n"
    text += format_table(
        ["placement", "cycles"],
        [
            ("all local (cube 0)", local),
            ("spread over 4 cubes", spread),
            (f"all remote (cube {DEVS - 1})", far),
        ],
    )
    text += (
        "\n\nChaining multiplies capacity at a per-hop latency cost; "
        "locality-aware placement recovers most of it."
    )
    emit(artifact_dir, "ext_chaining", text)
