"""E8 — Table VI: CMC mutex operation summary (min/max/avg).

Regenerates Table VI from the full shared session sweep
(parallelizable via ``REPRO_JOBS``) and pins the paper anchors:
minimum 6 cycles on both devices; the worst-case maximum and average
within the paper's magnitude; and the 8-link device ahead on both
metrics by a small margin.
"""

from conftest import emit

from repro.analysis.tables import render_table6
from repro.analysis.verify import PAPER_ANCHORS, relative_difference_pct


def test_table6_summary(sweeps, artifact_dir):
    rows = [s.table6_row() for s in sweeps]
    (dev4, min4, max4, avg4), (dev8, min8, max8, avg8) = rows
    assert dev4 == "4Link-4GB" and dev8 == "8Link-8GB"
    # Sanity bands around Table VI; verify_all checks the anchors.
    assert min4 == 6 and min8 == 6
    assert 300 <= max4 <= 480 and 300 <= max8 <= 480
    assert 170 <= avg4 <= 280 and 170 <= avg8 <= 280
    assert max8 <= max4 and avg8 <= avg4

    worst4 = sweeps[0].worst_case()
    worst8 = sweeps[1].worst_case()
    text = render_table6(sweeps)
    text += (
        f"\n\nWorst case: {worst4.config_name} at {worst4.threads} threads "
        f"({worst4.max_cycle} cycles); {worst8.config_name} at "
        f"{worst8.threads} threads ({worst8.max_cycle} cycles)."
    )
    paper_max = PAPER_ANCHORS["pct_max_advantage"].value
    paper_avg = PAPER_ANCHORS["pct_avg_advantage"].value
    text += (
        f"\n8-link advantage: max {relative_difference_pct(max4, max8):.1f}%, "
        f"avg {relative_difference_pct(avg4, avg8):.1f}% "
        f"(paper: {paper_max:g}% and {paper_avg:g}%)."
    )
    emit(artifact_dir, "table6_summary", text)
