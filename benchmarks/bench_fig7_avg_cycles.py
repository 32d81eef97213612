"""E7 — Figure 7: average lock cycles vs thread count (2..100).

Regenerates the AVG_CYCLE series from the shared session sweep
(parallelizable via ``REPRO_JOBS``).  Paper anchors asserted: worst-case
averages near the paper's 226.48 (4-link) / 221.48 (8-link), with the
8-link device ahead by a small margin ("only 2.2%"; we allow <10%).
"""

from conftest import emit

from repro.analysis.stats import relative_difference_pct
from repro.analysis.tables import render_figure_series
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS


def test_fig7_avg_cycles(sweeps, artifact_dir):
    s4, s8 = sweeps

    stats = WORKLOADS.get("mutex").run(HMCConfig.cfg_4link_4gb(), {"threads": 50})
    assert stats.min_cycle <= stats.avg_cycle <= stats.max_cycle

    worst4 = max(s4.avg_cycles)
    worst8 = max(s8.avg_cycles)
    # Paper: 226.48 (4L @ 99 threads), 221.48 (8L @ 100 threads).
    assert 170 <= worst4 <= 280, worst4
    assert 170 <= worst8 <= 280, worst8
    assert worst8 <= worst4
    assert relative_difference_pct(worst4, worst8) < 10.0
    # Identical configurations at the low-thread end.
    assert s4.avg_cycles[0] == s8.avg_cycles[0]

    emit(
        artifact_dir,
        "fig7_avg_cycles",
        render_figure_series("Figure 7: Average Lock Cycles", sweeps, "avg_cycles"),
    )
