"""Programmatic verification against the paper's published numbers.

:data:`PAPER_ANCHORS` is the one place the paper's reported values
(Tables II and VI and the §V.C percentage claims) are written, each
with the tolerance it is checked at.  :func:`verify_all` runs the
reproduction and reports a pass/fail verdict per anchor with the
measured deviation.  Used by the ``hmcsim-repro verify`` CLI command,
the paper benchmarks, the test suite and ``examples/``; the rendered
report is ``benchmarks/out/verification.txt``, and
``scripts/experiments_summary.py`` turns it into EXPERIMENTS.md's
paper-vs-measured block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.amo_traffic import table2_rows, traffic_reduction_factor
from repro.analysis.sweep import MutexSweep, run_mutex_sweep
from repro.analysis.tables import format_table
from repro.hmc.config import HMCConfig

__all__ = [
    "Anchor",
    "Claim",
    "PAPER_ANCHORS",
    "relative_difference_pct",
    "verify_all",
    "render_verification_report",
]


@dataclass(frozen=True)
class Anchor:
    """One verifiable claim from the paper."""

    name: str
    paper_value: float
    measured: float
    #: Accepted relative deviation (fraction); 0 demands exactness.
    tolerance: float

    @property
    def deviation(self) -> float:
        """Relative deviation of the measured value (fraction)."""
        if self.paper_value == 0:
            return abs(self.measured)
        return abs(self.measured - self.paper_value) / abs(self.paper_value)

    @property
    def passed(self) -> bool:
        """True when the measurement is within tolerance."""
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class Claim:
    """One row of the paper's numbers: where it is stated and how
    closely the reproduction must match it."""

    label: str
    #: Where the paper states it (``Table II``, ``Table VI``, ``§V.C``).
    ref: str
    value: float
    #: Accepted relative deviation (fraction); 0 demands exactness.
    tolerance: float


#: The paper's published numbers, in report order.  The §V.C
#: percentages carry one decimal of paper precision and measure a
#: second-order effect, so they are accepted within their own magnitude.
PAPER_ANCHORS: Dict[str, Claim] = {
    "table2_cache_bytes": Claim("Table II cache-based bytes", "Table II", 1536, 0.0),
    "table2_hmc_bytes": Claim("Table II HMC-based bytes", "Table II", 256, 0.0),
    "table2_reduction": Claim("Table II traffic reduction", "Table II", 6.0, 0.0),
    "table6_min_4link": Claim("Table VI 4-link min", "Table VI", 6, 0.0),
    "table6_min_8link": Claim("Table VI 8-link min", "Table VI", 6, 0.0),
    "table6_max_4link": Claim("Table VI 4-link max", "Table VI", 392, 0.05),
    "table6_max_8link": Claim("Table VI 8-link max", "Table VI", 387, 0.05),
    "table6_avg_4link": Claim("Table VI 4-link avg", "Table VI", 226.48, 0.05),
    "table6_avg_8link": Claim("Table VI 8-link avg", "Table VI", 221.48, 0.05),
    "pct_max_advantage": Claim("8-link max advantage (%)", "§V.C", 1.2, 1.0),
    "pct_avg_advantage": Claim("8-link avg advantage (%)", "§V.C", 2.2, 1.0),
}


def relative_difference_pct(a: float, b: float) -> float:
    """``(a - b) / a`` in percent: how much better ``b`` is than ``a``,
    the metric behind §V.C's "the 8 link device delivered a worst case
    ... 1.2% better" claims."""
    if a == 0:
        raise ValueError("reference value is zero")
    return 100.0 * (a - b) / a


def verify_all(
    sweeps: Optional[Sequence[MutexSweep]] = None,
    *,
    thread_counts: Optional[Sequence[int]] = None,
    jobs: int = 1,
    use_cache: bool = True,
) -> List[Anchor]:
    """Measure every anchor; returns the verdicts in table order.

    Args:
        sweeps: pre-computed [4-link, 8-link] sweeps (run if omitted).
        thread_counts: thread axis when running the sweeps here.
        jobs: worker processes for the sweeps (bit-identical results
            for any value; see :mod:`repro.parallel`).
        use_cache: reuse the persistent sweep cache.
    """
    if sweeps is None:
        sweeps = [
            run_mutex_sweep(cfg, thread_counts, jobs=jobs, use_cache=use_cache)
            for cfg in (HMCConfig.cfg_4link_4gb(), HMCConfig.cfg_8link_8gb())
        ]
    s4, s8 = sweeps
    _, min4, max4, avg4 = s4.table6_row()
    _, min8, max8, avg8 = s8.table6_row()
    rows = {r.amo_type: r for r in table2_rows()}
    measured = {
        "table2_cache_bytes": rows["Cache-Based"].bytes_paper,
        "table2_hmc_bytes": rows["HMC-Based"].bytes_paper,
        "table2_reduction": traffic_reduction_factor(),
        "table6_min_4link": min4,
        "table6_min_8link": min8,
        "table6_max_4link": max4,
        "table6_max_8link": max8,
        "table6_avg_4link": avg4,
        "table6_avg_8link": avg8,
        "pct_max_advantage": relative_difference_pct(max4, max8),
        "pct_avg_advantage": relative_difference_pct(avg4, avg8),
    }
    return [
        Anchor(claim.label, claim.value, measured[key], claim.tolerance)
        for key, claim in PAPER_ANCHORS.items()
    ]


def render_verification_report(anchors: Sequence[Anchor]) -> str:
    """Render the verdict table."""
    rows = []
    for a in anchors:
        rows.append(
            (
                a.name,
                f"{a.paper_value:g}",
                f"{a.measured:g}",
                f"{100 * a.deviation:.1f}%",
                "PASS" if a.passed else "FAIL",
            )
        )
    table = format_table(
        ["anchor", "paper", "measured", "deviation", "verdict"], rows
    )
    passed = sum(a.passed for a in anchors)
    return (
        f"{table}\n\n{passed}/{len(anchors)} anchors within tolerance "
        f"(exact anchors at 0% tolerance; Table VI at 5%; §V.C "
        f"percentage claims at 100% of their own magnitude)."
    )
