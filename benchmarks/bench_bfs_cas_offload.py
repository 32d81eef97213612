"""E11 — Related-work [10] model: BFS with CAS instruction offload.

Nai & Kim (MEMSYS'15) accelerated the check-and-update step of
breadth-first search with HMC 2.0 CAS atomics and reported "a
potentially significant savings in overall kernel bandwidth
utilization" (§II of the paper).  This bench reproduces the model:
level-synchronous BFS over a synthetic scale-free graph, baseline
read-modify-write versus single-CASEQ8 per inspected edge.
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS

VERTICES = 192
DEGREE = 4
GRAPH = {"vertices": VERTICES, "degree": DEGREE}


def test_bfs_cas_offload(artifact_dir):
    cfg = HMCConfig.cfg_4link_4gb()
    cas = WORKLOADS.get("bfs").run(cfg, {**GRAPH, "cas": True})
    base = WORKLOADS.get("bfs").run(cfg, {**GRAPH, "cas": False})

    assert cas.verified and base.verified
    assert cas.levels == base.levels
    # The offload's claim: fewer requests and fewer FLITs per edge.
    assert cas.requests < base.requests
    assert cas.flits < base.flits

    rows = [
        (r.mode, r.vertices, r.edges, r.levels, r.requests, r.flits,
         f"{r.flits / r.edges:.2f}")
        for r in (base, cas)
    ]
    text = "BFS check-and-update: host RMW baseline vs HMC CASEQ8 offload\n"
    text += format_table(
        ["mode", "vertices", "edges", "levels", "requests", "flits", "flits/edge"],
        rows,
    )
    text += (
        f"\n\nBandwidth saving: {100 * (1 - cas.flits / base.flits):.1f}% fewer "
        f"FLITs with CAS offload."
    )

    # Companion study: SSSP relaxations with the hmc_amin64 CMC op —
    # the same offload idea applied through the *custom* operation
    # space instead of a built-in atomic.
    sa = WORKLOADS.get("sssp").run(cfg, {**GRAPH, "amin": True})
    sb = WORKLOADS.get("sssp").run(cfg, {**GRAPH, "amin": False})
    assert sa.verified and sb.verified
    assert sa.requests < sb.requests and sa.cycles < sb.cycles
    text += "\n\nSSSP relaxation offload (hmc_amin64 CMC op vs host RMW):\n"
    text += format_table(
        ["mode", "rounds", "requests", "cycles"],
        [
            (sb.mode, sb.rounds, sb.requests, sb.cycles),
            (sa.mode, sa.rounds, sa.requests, sa.cycles),
        ],
    )
    emit(artifact_dir, "bfs_cas_offload", text)
