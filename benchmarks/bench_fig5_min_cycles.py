"""E5 — Figure 5: minimum lock cycles vs thread count (2..100).

Regenerates the MIN_CYCLE series for both evaluation configurations
from the shared session sweep (parallelizable via ``REPRO_JOBS``).
The paper's observations, asserted here: the configurations are
identical at low thread counts, the overall minimum is 6 cycles, and
beyond ~50 threads the 8-link device posts minimum timings at least
as low as the 4-link device.
"""

from conftest import emit

from repro.analysis.tables import render_figure_series
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS


def test_fig5_min_cycles(sweeps, artifact_dir):
    s4, s8 = sweeps

    # One representative high-contention data point.
    stats = WORKLOADS.get("mutex").run(HMCConfig.cfg_4link_4gb(), {"threads": 99})
    assert stats.min_cycle >= 6

    assert min(s4.min_cycles) == 6  # Table VI: Min Cycle Count = 6
    assert min(s8.min_cycles) == 6
    # Identical at the low end of the axis.
    assert s4.min_cycles[0] == s8.min_cycles[0] == 6
    # Past ~50 threads the 8-link device is at least as fast.
    tail = [
        (m4, m8)
        for n, m4, m8 in zip(s4.threads, s4.min_cycles, s8.min_cycles)
        if n > 50
    ]
    assert all(m8 <= m4 for m4, m8 in tail)

    emit(
        artifact_dir,
        "fig5_min_cycles",
        render_figure_series("Figure 5: Minimum Lock Cycles", sweeps, "min_cycles"),
    )
