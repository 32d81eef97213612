"""E14 — Extension: memory-level parallelism (request-window scaling).

§III argues HMC bandwidth comes from many concurrent requests in
flight ("multiple cores could effectively have equivalent access...").
This experiment quantifies it on the simulator: delivered read
bandwidth versus per-thread request window, on both paper
configurations.  Expected shape: near-linear growth at small windows
(latency-bound), saturation once the per-cycle response bandwidth of
the device is reached — with the 8-link device saturating at roughly
twice the 4-link bandwidth (it has twice the link retire capacity).
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.window import WindowedEngine

WINDOWS = (1, 2, 4, 8, 16)
THREADS = 8
READS_PER_THREAD = 64


def _run(cfg, window):
    sim = HMCSim(cfg)
    engine = WindowedEngine(sim, window=window)

    def program(ctx, base):
        addr = base
        for _ in range(READS_PER_THREAD // window):
            yield [ctx.read(addr + i * 64, 16) for i in range(window)]
            addr += window * 64

    for t in range(THREADS):
        engine.add_thread(lambda ctx, t=t: program(ctx, t * 0x100000))
    result = engine.run()
    return result.requests / result.total_cycles


def test_ext_window_scaling(artifact_dir):
    cfg4 = HMCConfig.cfg_4link_4gb()
    cfg8 = HMCConfig.cfg_8link_8gb()

    rows = []
    rates4, rates8 = [], []
    for w in WINDOWS:
        r4, r8 = _run(cfg4, w), _run(cfg8, w)
        rates4.append(r4)
        rates8.append(r8)
        rows.append((w, f"{r4:.2f}", f"{r8:.2f}", f"{r8 / r4:.2f}x"))

    # Shape checks: growth with window, then saturation; 8-link ahead
    # at saturation.
    assert rates4[1] > rates4[0]
    assert rates4[-1] >= rates4[2] * 0.8  # plateau, not collapse
    assert rates8[-1] > rates4[-1]

    text = (
        f"Window scaling: RD16 reads/cycle, {THREADS} threads x "
        f"{READS_PER_THREAD} reads\n"
    )
    text += format_table(
        ["window", "4Link-4GB rd/cyc", "8Link-8GB rd/cyc", "8L/4L"], rows
    )
    text += (
        "\n\nLatency-bound at window 1 (one read per 3-cycle round trip "
        "per thread); response-bandwidth-bound at large windows, where "
        "the extra links pay off."
    )
    emit(artifact_dir, "ext_window_scaling", text)
