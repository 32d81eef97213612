"""E6 — Figure 6: maximum lock cycles vs thread count (2..100).

Regenerates the MAX_CYCLE series from the shared session sweep
(parallelizable via ``REPRO_JOBS``).  Paper anchors asserted: the
worst-case maxima land near Table VI's (``PAPER_ANCHORS`` in
:mod:`repro.analysis.verify`), the series grows with thread count, and
the 8-link worst case is better by a small margin (§V.C's "only" a few
percent; we allow <10%).
"""

from conftest import emit

from repro.analysis.tables import render_figure_series
from repro.analysis.verify import relative_difference_pct
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS


def test_fig6_max_cycles(sweeps, artifact_dir):
    s4, s8 = sweeps

    stats = WORKLOADS.get("mutex").run(HMCConfig.cfg_8link_8gb(), {"threads": 100})
    assert stats.max_cycle > stats.min_cycle

    worst4 = max(s4.max_cycles)
    worst8 = max(s8.max_cycles)
    # Paper: the 4L worst case is at 99 threads, the 8L one at 100.
    assert 300 <= worst4 <= 480, worst4
    assert 300 <= worst8 <= 480, worst8
    assert worst8 <= worst4
    assert relative_difference_pct(worst4, worst8) < 10.0
    # Monotone-ish growth: the high end far exceeds the low end.
    assert max(s4.max_cycles) > 10 * s4.max_cycles[0]

    emit(
        artifact_dir,
        "fig6_max_cycles",
        render_figure_series("Figure 6: Maximum Lock Cycles", sweeps, "max_cycles"),
    )
