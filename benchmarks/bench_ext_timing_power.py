"""E12 — Future-work extension (§VII): timing and power resolution.

The paper's future work proposes distilling public Gen2 device data
into "the timing and power characteristics of an arbitrary HMC
device".  This bench exercises the two model seams: the same mutex
workload under ``timing=none`` and ``timing=open_page`` (the timing
model must slow the hot-spot workload down and surface bank
conflicts), and a mixed kernel under ``power=energy`` with a
per-operation energy breakdown.
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.workloads.registry import WORKLOADS

THREADS = 32


def _mutex(timing):
    cfg = HMCConfig.cfg_4link_4gb(timing=timing)
    return WORKLOADS.get("mutex").run(cfg, {"threads": THREADS})


def test_ext_timing_power(artifact_dir):
    baseline = _mutex("none")
    timed = _mutex("open_page")
    # DRAM timing must cost cycles on a bank-hot-spot workload.
    assert timed.max_cycle > baseline.max_cycle
    assert timed.avg_cycle > baseline.avg_cycle

    rows = [
        ("baseline (no timing)", baseline.max_cycle, f"{baseline.avg_cycle:.2f}"),
        ("open-page DRAM timing", timed.max_cycle, f"{timed.avg_cycle:.2f}"),
    ]
    text = f"Timing extension: Algorithm 1 at {THREADS} threads, 4Link-4GB\n"
    text += format_table(["model", "max_cycle", "avg_cycle"], rows)

    # Power accounting on a mixed atomic workload.
    sim = HMCSim(HMCConfig.cfg_4link_4gb(power="energy"))
    from repro.host.engine import HostEngine

    def program(ctx):
        yield ctx.write(ctx.tid * 64, bytes(64))
        yield ctx.inc8(ctx.tid * 64)
        yield ctx.read(ctx.tid * 64, 64)

    engine = HostEngine(sim)
    engine.add_threads(8, program)
    engine.run()
    report = sim.power_report
    assert report.total_pj > 0
    assert set(report.ops) == {"WR64", "INC8", "RD64"}
    # An INC8 is cheaper than the RD64 it replaces in RMW protocols.
    assert report.average_pj("INC8") < report.average_pj("RD64")

    text += "\n\nPower extension: per-op energy (8 threads x WR64+INC8+RD64)\n"
    text += format_table(
        ["op", "count", "total pJ", "avg pJ"],
        [
            (op, report.ops[op], f"{report.energy_pj[op]:.1f}",
             f"{report.average_pj(op):.1f}")
            for op in sorted(report.ops)
        ],
    )
    emit(artifact_dir, "ext_timing_power", text)
