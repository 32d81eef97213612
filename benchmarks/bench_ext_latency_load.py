"""E15 — Extension: open-loop latency versus offered load.

The classic memory-system characterization the HMC-Sim queueing
structures exist to answer: sweep the offered request rate and watch
latency stay flat until the device saturates, then grow sharply (the
"knee").  The 4-link device's knee sits at its aggregate response
bandwidth (link_rsp_rate x 4 = 16 requests/cycle); the 8-link device
doubles it — the clean-room version of the bandwidth argument in the
paper's §III.
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.hmc.config import HMCConfig
from repro.host.openloop import run_open_loop

RATES = (1.0, 4.0, 8.0, 12.0, 15.0, 20.0, 28.0)
DURATION = 384


def test_ext_latency_load(artifact_dir):
    cfg4 = HMCConfig.cfg_4link_4gb()
    cfg8 = HMCConfig.cfg_8link_8gb()

    rows = []
    curves = {"4L": [], "8L": []}
    for rate in RATES:
        s4 = run_open_loop(cfg4, offered_rate=rate, duration=DURATION)
        s8 = run_open_loop(cfg8, offered_rate=rate, duration=DURATION)
        curves["4L"].append(s4)
        curves["8L"].append(s8)
        rows.append(
            (
                rate,
                f"{s4.achieved_rate:.2f}",
                f"{s4.mean_latency:.1f}",
                s4.p99_latency,
                f"{s8.achieved_rate:.2f}",
                f"{s8.mean_latency:.1f}",
                s8.p99_latency,
            )
        )

    # Below the knee: flat, minimal latency on both devices.
    assert curves["4L"][0].mean_latency <= 4.0
    assert curves["8L"][0].mean_latency <= 4.0
    # Past the 4-link knee (16/cycle): 4L latency blows up, 8L absorbs it.
    over = curves["4L"][-1]
    assert over.saturated
    assert over.mean_latency > 5 * curves["4L"][0].mean_latency
    assert curves["8L"][-1].achieved_rate > curves["4L"][-1].achieved_rate

    text = (
        f"Open-loop latency vs offered load (uniform RD16, {DURATION}-cycle "
        f"injection window)\n"
    )
    text += format_table(
        [
            "offered req/cyc",
            "4L achieved",
            "4L mean lat",
            "4L p99",
            "8L achieved",
            "8L mean lat",
            "8L p99",
        ],
        rows,
    )
    text += (
        "\n\nKnee at ~16 req/cyc on the 4-link device (4 links x "
        "link_rsp_rate 4); the 8-link device doubles the ceiling."
    )
    emit(artifact_dir, "ext_latency_load", text)
