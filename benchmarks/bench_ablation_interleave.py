"""E16 — Ablation: address interleave order (vault-first vs bank-first).

The default HMC address map sweeps vaults at block granularity, which
is what makes streaming kernels spread across all 32 vault
controllers.  This ablation flips the map to bank-first interleave
(consecutive blocks sweep the banks of one vault) and measures the
effect with a windowed streaming-read workload that keeps enough
requests in flight to pressure the vault response ports — the regime
where placement matters.  Link bandwidth is raised out of the way and
the vault port tightened so the vault is the isolated variable.

Expected: vault-first interleave sustains several times the bank-first
bandwidth on streaming reads, while uniformly random open-loop traffic
is interleave-agnostic — the spec's default map is the right
general-purpose choice.
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.openloop import run_open_loop
from repro.host.window import WindowedEngine

THREADS = 8
WINDOW = 16
BATCHES = 8


def _stream_rate(cfg) -> float:
    """Windowed sequential RD16 stream; returns reads/cycle."""
    sim = HMCSim(cfg)

    def program(ctx, base):
        addr = base
        for _ in range(BATCHES):
            yield [ctx.read(addr + i * 64, 16) for i in range(WINDOW)]
            addr += WINDOW * 64

    engine = WindowedEngine(sim, window=WINDOW)
    for t in range(THREADS):
        # Contiguous per-thread regions, 8 KiB apart.
        engine.add_thread(lambda ctx, t=t: program(ctx, t * (1 << 13)))
    result = engine.run()
    return result.requests / result.total_cycles


def test_ablation_interleave(artifact_dir):
    # Vault response port tightened, link ceiling lifted: the vault is
    # the only contended resource.
    common = dict(vault_rsp_rate=2, link_rsp_rate=64)
    vault_cfg = HMCConfig.cfg_4link_4gb(**common)
    bank_cfg = HMCConfig.cfg_4link_4gb(addr_interleave="bank", **common)

    rate_vault = _stream_rate(vault_cfg)
    rate_bank = _stream_rate(bank_cfg)
    # Streaming reads need the vault-first sweep.
    assert rate_vault > 1.5 * rate_bank

    rand_vault = run_open_loop(vault_cfg, offered_rate=4.0, duration=256)
    rand_bank = run_open_loop(bank_cfg, offered_rate=4.0, duration=256)
    # Uniform traffic is interleave-agnostic (within a small tolerance).
    assert abs(rand_vault.mean_latency - rand_bank.mean_latency) < 2.0

    rows = [
        (
            f"windowed stream (W={WINDOW})",
            f"{rate_vault:.2f} rd/cyc",
            f"{rate_bank:.2f} rd/cyc",
            f"{rate_vault / rate_bank:.2f}x",
        ),
        (
            "uniform open-loop (mean lat)",
            f"{rand_vault.mean_latency:.1f} cyc",
            f"{rand_bank.mean_latency:.1f} cyc",
            "~1x",
        ),
    ]
    text = "Ablation: address interleave order (4Link-4GB, vault_rsp_rate=2)\n"
    text += format_table(
        ["workload", "vault-first (default)", "bank-first", "default advantage"],
        rows,
    )
    text += (
        "\n\nStreaming bandwidth needs the vault-first sweep; random "
        "traffic does not care — the spec's default map is the right "
        "general-purpose choice."
    )
    emit(artifact_dir, "ablation_interleave", text)
