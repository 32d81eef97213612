"""E10 — Prior-work kernels: STREAM Triad and RandomAccess (GUPS).

The HMC-Sim 1.0 evaluation (recounted in §II) ran a stride-1 STREAM
Triad kernel and an HPCC RandomAccess kernel against varying device
configurations.  This bench regenerates that comparison on both paper
configurations and additionally reports the RandomAccess atomic-XOR16
offload variant against the traditional read-modify-write kernel.
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS


def test_kernels_stream_gups(artifact_dir):
    cfgs = [HMCConfig.cfg_4link_4gb(), HMCConfig.cfg_8link_8gb()]

    stream = [
        WORKLOADS.get("stream").run(c, {"threads": 16, "blocks_per_thread": 8})
        for c in cfgs
    ]
    rows = [
        (s.config_name, "STREAM Triad", s.cycles, f"{s.bytes_per_cycle:.1f} B/cyc")
        for s in stream
    ]
    assert all(s.max_abs_error == 0.0 for s in stream)

    gups = []
    for c in cfgs:
        for atomic in (False, True):
            g = WORKLOADS.get("gups").run(
                c, {"threads": 16, "updates_per_thread": 16, "atomic": atomic}
            )
            gups.append(g)
            rows.append(
                (
                    g.config_name,
                    f"GUPS ({g.mode})",
                    g.cycles,
                    f"{g.updates_per_cycle:.3f} upd/cyc",
                )
            )
    # The stride-1 kernel beats random access in bytes-per-cycle terms,
    # and the atomic GUPS variant beats the rmw variant — the shapes
    # the HMC-Sim 1.0 evaluation reported.
    for c_idx in range(2):
        rmw = gups[c_idx * 2]
        atomic = gups[c_idx * 2 + 1]
        assert atomic.updates_per_cycle > rmw.updates_per_cycle
        assert atomic.verified

    text = "Prior-work kernels (HMC-Sim 1.0 evaluation, carried forward)\n"
    text += format_table(["config", "kernel", "cycles", "throughput"], rows)
    emit(artifact_dir, "kernels_stream_gups", text)
