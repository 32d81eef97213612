"""Vault queue-scan semantics under the timing model: per-bank FIFO,
cross-bank bypass, and conflict accounting."""

import pytest

from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim


def bank_addr(cfg, vault, bank, row=0):
    """Address targeting (vault, bank, row) under the default map."""
    from repro.hmc.addrmap import AddressMap

    return AddressMap(cfg).encode(vault=vault, bank=bank, row=row)


@pytest.fixture
def tsim():
    return HMCSim(HMCConfig.cfg_4link_4gb(timing="open_page"))


def collect_all(sim, n, max_cycles=200):
    got = []
    for _ in range(max_cycles):
        sim.clock()
        for link in range(sim.config.num_links):
            while True:
                rsp = sim.recv(link=link)
                if rsp is None:
                    break
                got.append((rsp.tag, sim.cycle))
        if len(got) == n:
            return got
    raise AssertionError(f"only {len(got)}/{n} responses")


class TestScanSemantics:
    def test_cross_bank_bypass(self, tsim):
        """A request behind a busy bank must not block one to a free bank."""
        cfg = tsim.config
        a0 = bank_addr(cfg, 0, 0)
        a1 = bank_addr(cfg, 0, 1)
        # Two to bank 0 (second will wait), then one to bank 1.
        tsim.send(tsim.build_memrequest(hmc_rqst_t.RD16, a0, 0), link=0)
        tsim.send(tsim.build_memrequest(hmc_rqst_t.RD16, a0, 1), link=0)
        tsim.send(tsim.build_memrequest(hmc_rqst_t.RD16, a1, 2), link=0)
        got = collect_all(tsim, 3)
        by_tag = dict(got)
        # Tag 2 (bank 1) completes with tag 0, before tag 1.
        assert by_tag[2] < by_tag[1]
        assert by_tag[2] == by_tag[0]

    def test_per_bank_fifo_preserved(self, tsim):
        """Same-bank requests complete in arrival order."""
        cfg = tsim.config
        a0 = bank_addr(cfg, 0, 0)
        for tag in range(4):
            tsim.send(tsim.build_memrequest(hmc_rqst_t.RD16, a0, tag), link=0)
        got = collect_all(tsim, 4)
        tags_in_completion_order = [t for t, _ in got]
        assert tags_in_completion_order == [0, 1, 2, 3]

    def test_conflicts_counted_for_waiters(self, tsim):
        cfg = tsim.config
        a0 = bank_addr(cfg, 0, 0)
        tsim.send(tsim.build_memrequest(hmc_rqst_t.RD16, a0, 0), link=0)
        tsim.send(tsim.build_memrequest(hmc_rqst_t.RD16, a0, 1), link=0)
        collect_all(tsim, 2)
        assert tsim.devices[0].vaults[0].bank_conflicts > 0

    def test_service_time_visible_in_latency(self, tsim):
        """With t_rcd+t_cl = 4 on a cold bank, the round trip exceeds
        the baseline 3 cycles."""
        tsim.send(tsim.build_memrequest(hmc_rqst_t.RD16, 0, 1), link=0)
        got = collect_all(tsim, 1)
        _, cycle = got[0]
        assert cycle > 3

    def test_row_hit_faster_than_miss(self, tsim):
        cfg = tsim.config
        # Two sequential requests to the same row: second is a row hit.
        a_row0 = bank_addr(cfg, 0, 0, row=0)
        tsim.send(tsim.build_memrequest(hmc_rqst_t.RD16, a_row0, 0), link=0)
        got0 = collect_all(tsim, 1)
        t_first = got0[0][1]
        start = tsim.cycle
        tsim.send(tsim.build_memrequest(hmc_rqst_t.RD16, a_row0 + 16, 1), link=0)
        got1 = collect_all(tsim, 1)
        t_hit = got1[0][1] - start
        # Cold access took t_rcd + t_cl (+pipeline); the hit only t_cl.
        assert t_hit < t_first

    def test_baseline_unaffected_by_scan_rewrite(self):
        """Without a timing model, everything still completes in FIFO
        order in one vault cycle — the calibration invariant."""
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        for tag in range(8):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag), link=0)
        got = collect_all(sim, 8)
        cycles = {c for _, c in got}
        # All retire across two cycles at most (link_rsp_rate=4).
        assert len(cycles) == 2
        assert [t for t, _ in got] == list(range(8))
