"""E9 — Ablation: where does the queueing behaviour come from?

§V.C attributes the evaluation's shape to "the identical queueing
structure for both configurations and the hot spotting induced from
utilizing a single lock structure".  This ablation varies each
queueing resource independently at 100 threads and reports its effect
on the worst-case cycle count:

* vault request queue depth (64 in the paper),
* crossbar queue depth (128 in the paper),
* per-link response bandwidth (the 4-link/8-link differentiator),
* per-vault response-port bandwidth (the shared bottleneck).
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS

THREADS = 100


def test_ablation_queues(artifact_dir):
    baseline = WORKLOADS.get("mutex").run(
        HMCConfig.cfg_4link_4gb(), {"threads": THREADS}
    )

    rows = [("baseline 4Link-4GB", baseline.max_cycle, f"{baseline.avg_cycle:.2f}")]

    variants = [
        ("queue_depth 8", dict(queue_depth=8)),
        ("queue_depth 256", dict(queue_depth=256)),
        ("xbar_depth 16", dict(xbar_depth=16)),
        ("xbar_depth 512", dict(xbar_depth=512)),
        ("link_rsp_rate 1", dict(link_rsp_rate=1)),
        ("link_rsp_rate 64", dict(link_rsp_rate=64)),
        ("vault_rsp_rate 4", dict(vault_rsp_rate=4)),
        ("vault_rsp_rate 64", dict(vault_rsp_rate=64)),
    ]
    results = {}
    for name, overrides in variants:
        stats = WORKLOADS.get("mutex").run(
            HMCConfig.cfg_4link_4gb(**overrides), {"threads": THREADS}
        )
        results[name] = stats
        rows.append((name, stats.max_cycle, f"{stats.avg_cycle:.2f}"))

    # Design-choice checks: tightening a response-bandwidth resource
    # hurts; widening it helps; queue *depths* barely matter for the
    # hot-spot workload (they model capacity the workload never fills).
    assert results["link_rsp_rate 1"].max_cycle > baseline.max_cycle
    assert results["link_rsp_rate 64"].max_cycle < baseline.max_cycle
    assert results["vault_rsp_rate 4"].max_cycle > baseline.max_cycle
    assert results["vault_rsp_rate 64"].max_cycle <= baseline.max_cycle

    text = "Ablation: Algorithm 1 at 100 threads, 4Link-4GB variants\n"
    text += format_table(["variant", "max_cycle", "avg_cycle"], rows)
    emit(artifact_dir, "ablation_queues", text)
