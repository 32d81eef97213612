"""E7 — Figure 7: average lock cycles vs thread count (2..100).

Regenerates the AVG_CYCLE series from the shared session sweep
(parallelizable via ``REPRO_JOBS``).  Paper anchors asserted: worst-case
averages near Table VI's (``PAPER_ANCHORS`` in
:mod:`repro.analysis.verify`), with the 8-link device ahead by a small
margin (§V.C's "only" a few percent; we allow <10%).
"""

from conftest import emit

from repro.analysis.tables import render_figure_series
from repro.analysis.verify import relative_difference_pct
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS


def test_fig7_avg_cycles(sweeps, artifact_dir):
    s4, s8 = sweeps

    stats = WORKLOADS.get("mutex").run(HMCConfig.cfg_4link_4gb(), {"threads": 50})
    assert stats.min_cycle <= stats.avg_cycle <= stats.max_cycle

    worst4 = max(s4.avg_cycles)
    worst8 = max(s8.avg_cycles)
    # Paper: the 4L worst case is at 99 threads, the 8L one at 100.
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
