"""E13 — Ablation: Table V test-and-set mutex vs a ticket-lock CMC design.

The paper reserves lock-value encodings "to encode more expressive
locks (such as soft locks) in this space in the future" (§V.A).  This
ablation evaluates one such candidate built from the same CMC
machinery: the FIFO ticket lock of :mod:`repro.cmc_ops.ticket`, run
on the identical hot-spot workload.

Questions answered: does fairness cost throughput on this device
(compare MAX/AVG cycles), and does the test-and-set design actually
grant out of order (it does — the ticket design is provably FIFO)?
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS

THREAD_POINTS = (8, 32, 64, 100)


def test_ablation_fairness(artifact_dir):
    cfg = HMCConfig.cfg_4link_4gb()

    ticket100 = WORKLOADS.get("ticket").run(cfg, {"threads": 100})
    assert ticket100.fifo_order  # strict arrival-order handoff

    rows = []
    for n in THREAD_POINTS:
        m = WORKLOADS.get("mutex").run(cfg, {"threads": n})
        t = ticket100 if n == 100 else WORKLOADS.get("ticket").run(cfg, {"threads": n})
        assert t.fifo_order, n
        rows.append(
            (
                n,
                m.max_cycle,
                f"{m.avg_cycle:.2f}",
                t.max_cycle,
                f"{t.avg_cycle:.2f}",
                f"{t.max_cycle / m.max_cycle:.2f}x",
            )
        )
        # Same magnitude: fairness is not an order-of-magnitude tax here.
        assert 0.3 < t.max_cycle / m.max_cycle < 3.0, n

    text = (
        "Ablation: Table V test-and-set mutex vs ticket-lock CMC design "
        "(4Link-4GB)\n"
    )
    text += format_table(
        [
            "threads",
            "mutex max",
            "mutex avg",
            "ticket max",
            "ticket avg",
            "ticket/mutex",
        ],
        rows,
    )
    text += (
        "\n\nTicket lock grants in strict FIFO arrival order at every point "
        "(fifo_order=True); the Table V design does not guarantee order."
    )
    emit(artifact_dir, "ablation_fairness", text)
