"""Register file and JTAG access tests."""

import pytest

from repro.errors import HMCSimError
from repro.hmc.config import HMCConfig
from repro.hmc.registers import HMC_REG, RegisterFile


@pytest.fixture
def regs():
    return RegisterFile(HMCConfig.cfg_4link_4gb(), dev=0)


class TestRegisterFile:
    def test_all_named_registers_exist(self, regs):
        for name, idx in HMC_REG.items():
            assert regs.valid(idx), name

    def test_write_read_roundtrip(self, regs):
        regs.write(HMC_REG["EDR0"], 0xDEAD)
        assert regs.read(HMC_REG["EDR0"]) == 0xDEAD

    def test_unknown_register_read(self, regs):
        with pytest.raises(HMCSimError):
            regs.read(0x999999)

    def test_unknown_register_write(self, regs):
        with pytest.raises(HMCSimError):
            regs.write(0x999999, 1)

    def test_value_must_fit_64_bits(self, regs):
        with pytest.raises(HMCSimError):
            regs.write(HMC_REG["EDR0"], 1 << 64)
        with pytest.raises(HMCSimError):
            regs.write(HMC_REG["EDR0"], -1)

    def test_features_encodes_geometry(self, regs):
        feat = regs.read(HMC_REG["FEAT"])
        assert feat & 0xF == 4  # capacity GB
        assert (feat >> 4) & 0xF == 4  # links
        assert (feat >> 8) & 0x3F == 32  # vaults
        assert (feat >> 14) & 0x1F == 16  # banks

    def test_features_8link(self):
        regs = RegisterFile(HMCConfig.cfg_8link_8gb(), dev=0)
        feat = regs.read(HMC_REG["FEAT"])
        assert feat & 0xF == 8
        assert (feat >> 4) & 0xF == 8

    def test_revision_is_gen2(self, regs):
        rvid = regs.read(HMC_REG["RVID"])
        assert (rvid >> 8) & 0xF == 2  # major: spec 2.x

    def test_read_only_registers_ignore_writes(self, regs):
        before = regs.read(HMC_REG["FEAT"])
        regs.write(HMC_REG["FEAT"], 0)
        assert regs.read(HMC_REG["FEAT"]) == before

    def test_active_links_initialized(self, regs):
        for l in range(4):
            assert regs.read(HMC_REG[f"LC{l}"]) & 1 == 1
        # Links beyond the configured count exist but are inactive.
        assert regs.read(HMC_REG["LC7"]) & 1 == 0


class TestJTAGThroughSim:
    def test_jtag_read_write(self, sim):
        sim.jtag_reg_write(0, HMC_REG["EDR1"], 0xBEEF)
        assert sim.jtag_reg_read(0, HMC_REG["EDR1"]) == 0xBEEF

    def test_jtag_features_visible(self, sim):
        assert sim.jtag_reg_read(0, HMC_REG["FEAT"]) & 0xF == 4

    def test_jtag_bad_register(self, sim):
        with pytest.raises(HMCSimError):
            sim.jtag_reg_read(0, 0x123456)


class TestModePackets:
    def test_md_wr_then_md_rd(self, sim, do_roundtrip):
        from repro.hmc.commands import hmc_response_t, hmc_rqst_t

        reg = HMC_REG["EDR2"]
        pkt = sim.build_memrequest(
            hmc_rqst_t.MD_WR, reg, 1, data=(0xCAFE).to_bytes(8, "little") + bytes(8)
        )
        rsp = do_roundtrip(sim, pkt)
        assert rsp.cmd == int(hmc_response_t.MD_WR_RS)
        pkt = sim.build_memrequest(hmc_rqst_t.MD_RD, reg, 2)
        rsp = do_roundtrip(sim, pkt)
        assert rsp.cmd == int(hmc_response_t.MD_RD_RS)
        assert int.from_bytes(rsp.data[:8], "little") == 0xCAFE

    def test_md_rd_bad_register_yields_error_response(self, sim, do_roundtrip):
        from repro.hmc.commands import hmc_response_t, hmc_rqst_t

        pkt = sim.build_memrequest(hmc_rqst_t.MD_RD, 0x3FFFFF, 3)
        rsp = do_roundtrip(sim, pkt)
        assert rsp.cmd == int(hmc_response_t.RSP_ERROR)
        assert rsp.errstat != 0
