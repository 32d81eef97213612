"""E0 — The verification capstone: every paper anchor, one verdict table.

Runs :func:`repro.analysis.verify.verify_all` against the session's
full sweep and asserts that **every** anchor from the paper (Table II
values exactly; Table VI within 5 %; the §V.C percentage claims within
their own magnitude) is reproduced.  The rendered report is the
machine-generated counterpart of EXPERIMENTS.md.
"""

from conftest import emit

from repro.analysis.verify import render_verification_report, verify_all


def test_verification(sweeps, artifact_dir):
    anchors = verify_all(sweeps)
    failing = [a.name for a in anchors if not a.passed]
    assert not failing, f"paper anchors out of tolerance: {failing}"
    emit(artifact_dir, "verification", render_verification_report(anchors))
