"""SimSampler instrumentation tests."""

import pytest

from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.hmc.stats import OccupancySeries, SimSampler
from tests.conftest import run_workload


def _run_sampled(sim, sampler, cycles):
    """Clock ``sim`` ``cycles`` times, sampling after each."""
    for _ in range(cycles):
        sim.clock()
        sampler.tick()


class TestOccupancySeries:
    def test_empty(self):
        s = OccupancySeries("q")
        assert s.peak == 0
        assert s.mean == 0.0

    def test_statistics(self):
        s = OccupancySeries("q", samples=[0, 2, 4, 0])
        assert s.peak == 4
        assert s.mean == 1.5


class TestSampler:
    def test_interval_validation(self, sim):
        with pytest.raises(ValueError):
            SimSampler(sim, interval=0)

    def test_idle_sim_samples_zero(self, sim):
        sampler = SimSampler(sim)
        _run_sampled(sim, sampler, 4)
        assert sampler.cycles_sampled == 4
        assert all(s.peak == 0 for s in sampler.vault_series.values())
        assert sampler.link_bandwidth() == 0.0

    def test_hot_vault_visible(self, sim):
        # Ten same-vault requests: occupancy peaks at 10 in vault 0.
        for tag in range(10):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        sampler = SimSampler(sim)
        _run_sampled(sim, sampler, 4)
        hot = sampler.hottest_vaults(1)[0]
        assert hot.name == "dev0.vault0"
        assert hot.peak == 10

    def test_link_bandwidth_counts_flits(self, sim):
        # The request FLIT is counted at send (before the baseline
        # sample), so the sampled window sees the 5 response FLITs of
        # one RD64 moving out.
        sim.send(sim.build_memrequest(hmc_rqst_t.RD64, 0, 1))
        sampler = SimSampler(sim)
        sampler.tick()  # establish the baseline at cycle 0
        _run_sampled(sim, sampler, 4)
        while sim.recv() is not None:
            pass
        total = sampler.link_bandwidth() * 4
        assert total == pytest.approx(5.0)

    def test_sampling_interval(self, sim):
        sampler = SimSampler(sim, interval=2)
        _run_sampled(sim, sampler, 8)
        assert sampler.cycles_sampled == 4

    def test_report_mentions_hot_queue(self, sim):
        for tag in range(6):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        sampler = SimSampler(sim)
        _run_sampled(sim, sampler, 3)
        report = sampler.report()
        assert "dev0.vault0" in report
        assert "FLITs/cycle" in report

    def test_sampling_does_not_perturb(self):
        """A sampled run and an unsampled run produce identical results."""
        from repro.cmc_ops.mutex import load_mutex_ops

        cfg = HMCConfig.cfg_4link_4gb()
        plain = run_workload("mutex", cfg, threads=16)

        sim = HMCSim(cfg)
        load_mutex_ops(sim)
        sampler = SimSampler(sim)
        orig_clock = sim.clock

        def sampled_clock(cycles=1):
            rc = orig_clock(cycles)
            sampler.tick()
            return rc

        sim.clock = sampled_clock  # type: ignore[method-assign]
        sampled = run_workload("mutex", cfg, threads=16, sim=sim)
        assert (plain.min_cycle, plain.max_cycle, plain.avg_cycle) == (
            sampled.min_cycle,
            sampled.max_cycle,
            sampled.avg_cycle,
        )
        assert sampler.cycles_sampled > 0


class TestCompatUtils:
    def test_decode_helpers_agree_with_addrmap(self, sim):
        from repro.compat import (
            hmcsim_util_decode_bank,
            hmcsim_util_decode_quad,
            hmcsim_util_decode_qv,
            hmcsim_util_decode_row,
            hmcsim_util_decode_vault,
            hmcsim_util_get_max_blocksize,
        )

        for addr in (0, 64, 4096, 1 << 20):
            d = sim.addrmap.decode(addr)
            assert hmcsim_util_decode_vault(sim, addr) == d.vault
            assert hmcsim_util_decode_bank(sim, addr) == d.bank
            assert hmcsim_util_decode_quad(sim, addr) == d.quad
            assert hmcsim_util_decode_row(sim, addr) == d.row
            assert hmcsim_util_decode_qv(sim, addr) == (d.quad, d.vault)
        assert hmcsim_util_get_max_blocksize(sim) == 64
