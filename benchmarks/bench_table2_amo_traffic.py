"""E2 — Table II: HMC Gen2 atomic memory operation efficiency.

Regenerates the cache-based vs HMC-based increment traffic comparison,
then validates it against *live* simulation traffic: a histogram
workload run in rmw mode versus atomic INC8 mode must reproduce the
same FLIT-per-operation ratio the static table predicts.
"""

from conftest import emit

from repro.analysis.amo_traffic import (
    cache_rmw_flits,
    hmc_amo_flits,
    table2_rows,
    traffic_reduction_factor,
)
from repro.analysis.tables import render_table2
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS


def test_table2_amo_traffic(artifact_dir):
    rows = table2_rows()
    by_type = {r.amo_type: r for r in rows}
    # Verbatim paper values (their 128-byte-FLIT arithmetic).
    assert by_type["Cache-Based"].flits == 12
    assert by_type["Cache-Based"].bytes_paper == 1536
    assert by_type["HMC-Based"].flits == 2
    assert by_type["HMC-Based"].bytes_paper == 256
    assert traffic_reduction_factor() == 6.0

    lines = [render_table2(), ""]
    lines.append(
        f"Traffic reduction (cache RMW / INC8): "
        f"{cache_rmw_flits()}/{hmc_amo_flits()} = {traffic_reduction_factor():.1f}x"
    )
    # Live validation: measured FLITs/op from the simulator.
    cfg = HMCConfig.cfg_4link_4gb()
    hist = {"threads": 8, "samples_per_thread": 16}
    atomic = WORKLOADS.get("hist").run(cfg, {**hist, "mode": "atomic"})
    rmw = WORKLOADS.get("hist").run(cfg, {**hist, "mode": "rmw"})
    lines.append(
        f"Live pipeline check: atomic={atomic.flits_per_sample:.1f} FLITs/op, "
        f"16B-line rmw={rmw.flits_per_sample:.1f} FLITs/op"
    )
    assert atomic.flits_per_sample == 2.0
    emit(artifact_dir, "table2_amo_traffic", "\n".join(lines))
