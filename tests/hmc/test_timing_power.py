"""Timing and power extension tests (the §VII future-work models)."""

import pytest

from repro.hmc.commands import command_info, hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.power import HMCPowerModel, PowerReport
from repro.hmc.sim import HMCSim
from repro.hmc.timing import HMCTimingModel
from repro.hmc.trace import TraceLevel


class TestTimingModel:
    def test_row_hit_costs_cl(self):
        t = HMCTimingModel(t_cl=3, t_rcd=4, t_rp=5)
        assert t.access_cycles(open_row=7, row=7) == 3

    def test_cold_bank_costs_rcd_plus_cl(self):
        t = HMCTimingModel(t_cl=3, t_rcd=4, t_rp=5)
        assert t.access_cycles(open_row=-1, row=7) == 7

    def test_row_miss_costs_full_cycle(self):
        t = HMCTimingModel(t_cl=3, t_rcd=4, t_rp=5)
        assert t.access_cycles(open_row=1, row=7) == 12

    def test_atomic_adds_alu_cycles(self):
        t = HMCTimingModel(atomic_alu_cycles=2)
        info = command_info(hmc_rqst_t.INC8)
        base = t.access_cycles(-1, 0)
        assert t.request_cycles(info, -1, 0) == base + 2

    def test_cmc_adds_cmc_cycles(self):
        t = HMCTimingModel(cmc_alu_cycles=3)
        info = command_info(hmc_rqst_t.CMC125)
        assert t.request_cycles(info, 5, 5) == t.t_cl + 3

    def test_plain_read_no_alu(self):
        t = HMCTimingModel()
        info = command_info(hmc_rqst_t.RD64)
        assert t.request_cycles(info, 5, 5) == t.t_cl


class TestTimingInPipeline:
    def test_bank_serializes_under_timing(self):
        # With the timing model, two same-bank requests can no longer
        # complete in one cycle — the second sees a busy bank.
        sim = HMCSim(HMCConfig.cfg_4link_4gb(timing="open_page"))
        sim.trace_level(TraceLevel.BANK)
        for tag in range(2):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        got = 0
        retire_cycles = []
        for _ in range(30):
            sim.clock()
            rsp = sim.recv()
            if rsp:
                got += 1
                retire_cycles.append(sim.cycle)
        assert got == 2
        assert retire_cycles[1] > retire_cycles[0]
        assert sim.devices[0].vaults[0].bank_conflicts > 0
        assert any(ev.level is TraceLevel.BANK for ev in sim.tracer.events)

    def test_different_banks_still_parallel(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(timing="open_page"))
        cfg = sim.config
        # Same vault, different banks: bank stride is bsize * num_vaults.
        bank_stride = cfg.bsize * cfg.num_vaults
        for tag in range(2):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, tag * bank_stride, tag))
        got_cycles = []
        for _ in range(30):
            sim.clock()
            while True:
                rsp = sim.recv()
                if rsp is None:
                    break
                got_cycles.append(sim.cycle)
        assert len(got_cycles) == 2
        assert got_cycles[0] == got_cycles[1]

    def test_row_buffer_locality_visible(self):
        # Two requests to the same row: second is faster (row hit).
        sim = HMCSim(HMCConfig.cfg_4link_4gb(timing="open_page"))
        bank = sim.devices[0].vaults[0].banks[0]
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 0))
        sim.drain()
        assert bank.row_misses == 1
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 16, 1))
        sim.drain()
        assert bank.row_hits == 1

    def test_baseline_has_no_conflicts(self, sim):
        for tag in range(8):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        sim.drain()
        assert sim.devices[0].vaults[0].bank_conflicts == 0


class TestPowerModel:
    def test_request_energy_composition(self):
        p = HMCPowerModel(pj_per_flit=2.0, pj_dram_access=100.0, pj_atomic_alu=5.0)
        info = command_info(hmc_rqst_t.INC8)
        # 1 request FLIT + 1 response FLIT + DRAM + ALU.
        assert p.request_energy(info, 1, 1) == 2.0 * 2 + 100.0 + 5.0

    def test_read_has_no_alu(self):
        p = HMCPowerModel()
        info = command_info(hmc_rqst_t.RD64)
        assert p.request_energy(info, 1, 5) == 6 * p.pj_per_flit + p.pj_dram_access

    def test_cmc_uses_cmc_alu(self):
        p = HMCPowerModel()
        info = command_info(hmc_rqst_t.CMC125)
        assert (
            p.request_energy(info, 2, 2)
            == 4 * p.pj_per_flit + p.pj_dram_access + p.pj_cmc_alu
        )

    def test_report_accumulates(self):
        r = PowerReport()
        r.add("INC8", 10.0)
        r.add("INC8", 14.0)
        r.add("RD64", 5.0)
        assert r.total_pj == 29.0
        assert r.ops["INC8"] == 2
        assert r.average_pj("INC8") == 12.0
        assert r.average_pj("never") == 0.0

    def test_pipeline_accounts_energy(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(power="energy"))
        sim.trace_level(TraceLevel.POWER)
        sim.send(sim.build_memrequest(hmc_rqst_t.INC8, 0, 0))
        sim.drain()
        assert sim.power_report.total_pj > 0
        assert sim.power_report.ops.get("INC8") == 1
        assert any(ev.level is TraceLevel.POWER for ev in sim.tracer.events)
        assert sim.stats()["energy_pj"] == sim.power_report.total_pj

    def test_model_assigned_after_construction_accounts_energy(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        sim.power = HMCPowerModel()
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 0))
        sim.drain()
        assert sim.stats()["energy_pj"] > 0
        assert sim.power_report.ops.get("RD16") == 1

    def test_atomic_cheaper_than_rmw_traffic_energy(self):
        # The Table II argument in energy terms: INC8 vs RD64+WR64.
        p = HMCPowerModel()
        inc = p.request_energy(command_info(hmc_rqst_t.INC8), 1, 1)
        rmw = p.request_energy(command_info(hmc_rqst_t.RD64), 1, 5) + p.request_energy(
            command_info(hmc_rqst_t.WR64), 5, 1
        )
        assert rmw > inc
