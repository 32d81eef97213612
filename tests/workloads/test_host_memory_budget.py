"""Host-memory budget of the STREAM and GUPS frontends.

perfbench's ``stream_gups`` row reports ``peak_rss_mb``, and at that
row's size the kernels' host-side data (inputs, references, read-backs)
is what lifts it.  A timing-free gate, in the style of the call budget
in ``tests/hmc/test_hot_path_budget.py``: each run is traced by
``tracemalloc`` from context construction to its stats object, and the
peak of Python-allocated bytes must stay under a ceiling.  The count
repeats on any host with the same Python; the ceilings sit about 10%
above the measured peaks, so a list of floats or an unpacked tuple of
the arrays (4x the bytes of the packed ``array``) cannot creep back.

Measured (CPython 3.11, 4Link-4GB): STREAM 16.5 MB -> 5.6 MB and
atomic GUPS 5.3 MB -> 3.5 MB when their host data became packed
8-byte ``array`` buffers compared in C.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS

#: name -> (perfbench ``stream_gups`` parameters, ceiling in MiB).
BUDGETS = {
    "stream": ({"threads": 64, "blocks_per_thread": 256}, 6.2),
    "gups": (
        {
            "threads": 64,
            "updates_per_thread": 256,
            "table_entries": 65536,
            "atomic": True,
        },
        3.9,
    ),
}


def _peak_mib(name: str, params: dict):
    """One run of ``name``; returns its stats and traced peak in MiB."""
    frontend = WORKLOADS.get(name)
    # A small run first, so one-time imports and caches are not counted.
    frontend.run(HMCConfig.cfg_4link_4gb(), {"threads": 2})
    tracemalloc.start()
    try:
        stats = frontend.run(HMCConfig.cfg_4link_4gb(), params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return stats, peak / 2**20


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_host_memory_peak_under_ceiling(name):
    params, ceiling = BUDGETS[name]
    stats, peak = _peak_mib(name, params)
    assert WORKLOADS.get(name).passed(stats)
    assert peak <= ceiling, f"{name}: {peak:.2f} MiB traced, ceiling {ceiling}"


if __name__ == "__main__":  # print the measured peaks
    for name, (params, ceiling) in sorted(BUDGETS.items()):
        _, peak = _peak_mib(name, params)
        print(f"{name}: {peak:.3f} MiB (ceiling {ceiling})")
