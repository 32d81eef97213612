#!/usr/bin/env python3
"""The paper's evaluation, in miniature: Algorithm 1 under contention.

Runs the CMC mutex workload (hmc_lock / hmc_trylock / hmc_unlock
against one shared 16-byte lock structure) for a sample of thread
counts on both the 4Link-4GB and 8Link-8GB configurations, and prints
the MIN/MAX/AVG cycle statistics — a quick-look version of the paper's
Figures 5-7 and Table VI.  The full 2..100 sweep lives in
``benchmarks/bench_fig5..7*`` and ``bench_table6_summary.py``.

Run:  python examples/mutex_contention.py [max_threads]
"""

import sys

from repro import HMCConfig
from repro.analysis.tables import format_table
from repro.workloads.registry import WORKLOADS


def main():
    max_threads = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    counts = [n for n in (2, 5, 10, 25, 50, 75, 99, 100) if n <= max_threads]
    configs = [HMCConfig.cfg_4link_4gb(), HMCConfig.cfg_8link_8gb()]

    rows = []
    for n in counts:
        cells = [n]
        for cfg in configs:
            s = WORKLOADS.get("mutex").run(cfg, {"threads": n})
            cells += [s.min_cycle, s.max_cycle, f"{s.avg_cycle:.2f}"]
        rows.append(cells)

    headers = ["Threads"]
    for cfg in configs:
        name = cfg.describe()
        headers += [f"{name} min", f"{name} max", f"{name} avg"]
    print("Algorithm 1 (CMC mutex) cycle statistics\n")
    print(format_table(headers, rows))

    print(
        "\nPaper anchors: MIN=6 overall; worst case 392 cycles / 226.48 avg "
        "(4Link @ 99 threads) vs 387 / 221.48 (8Link @ 100 threads); "
        "configurations identical at low thread counts."
    )


if __name__ == "__main__":
    main()
