"""Configuration validation tests (the hmcsim_init legality checks)."""

import pytest

from repro.errors import HMCConfigError
from repro.hmc.config import NUM_QUADS, HMCConfig


class TestValidation:
    def test_default_is_valid(self):
        HMCConfig()

    @pytest.mark.parametrize("links", [1, 2, 3, 5, 6, 7, 9, 16])
    def test_bad_links(self, links):
        with pytest.raises(HMCConfigError):
            HMCConfig(num_links=links)

    @pytest.mark.parametrize("cap", [0, 1, 3, 5, 6, 7, 16])
    def test_bad_capacity(self, cap):
        with pytest.raises(HMCConfigError):
            HMCConfig(capacity=cap)

    @pytest.mark.parametrize("vaults", [0, 8, 24, 64])
    def test_bad_vaults(self, vaults):
        with pytest.raises(HMCConfigError):
            HMCConfig(num_vaults=vaults)

    @pytest.mark.parametrize("banks", [0, 4, 12, 32])
    def test_bad_banks(self, banks):
        with pytest.raises(HMCConfigError):
            HMCConfig(num_banks=banks)

    @pytest.mark.parametrize("drams", [0, 8, 18, 32])
    def test_bad_drams(self, drams):
        with pytest.raises(HMCConfigError):
            HMCConfig(num_drams=drams)

    @pytest.mark.parametrize("devs", [0, 9, 100])
    def test_bad_num_devs(self, devs):
        with pytest.raises(HMCConfigError):
            HMCConfig(num_devs=devs)

    def test_bad_queue_depths(self):
        with pytest.raises(HMCConfigError):
            HMCConfig(queue_depth=1)
        with pytest.raises(HMCConfigError):
            HMCConfig(xbar_depth=0)

    @pytest.mark.parametrize("bsize", [16, 48, 512, 0])
    def test_bad_bsize(self, bsize):
        with pytest.raises(HMCConfigError):
            HMCConfig(bsize=bsize)

    def test_bad_rates(self):
        with pytest.raises(HMCConfigError):
            HMCConfig(link_rsp_rate=0)
        with pytest.raises(HMCConfigError):
            HMCConfig(vault_rsp_rate=0)

    def test_frozen(self):
        cfg = HMCConfig()
        with pytest.raises(Exception):
            cfg.num_links = 8  # type: ignore[misc]


class TestPaperConfigs:
    def test_4link_4gb(self):
        cfg = HMCConfig.cfg_4link_4gb()
        # §V.B: 4Link-4GB, max block 64B, queue depth 64, xbar depth 128.
        assert cfg.num_links == 4
        assert cfg.capacity == 4
        assert cfg.bsize == 64
        assert cfg.queue_depth == 64
        assert cfg.xbar_depth == 128
        assert cfg.describe() == "4Link-4GB"

    def test_8link_8gb(self):
        cfg = HMCConfig.cfg_8link_8gb()
        assert cfg.num_links == 8
        assert cfg.capacity == 8
        assert cfg.queue_depth == 64
        assert cfg.xbar_depth == 128
        assert cfg.describe() == "8Link-8GB"

    def test_overrides(self):
        cfg = HMCConfig.cfg_4link_4gb(queue_depth=8)
        assert cfg.queue_depth == 8
        assert cfg.num_links == 4

    def test_bad_override_rejected(self):
        with pytest.raises(HMCConfigError):
            HMCConfig.cfg_4link_4gb(capacity=3)


class TestGeometry:
    def test_capacity_bytes(self):
        assert HMCConfig(capacity=4).capacity_bytes == 4 << 30
        assert HMCConfig(capacity=8, num_links=8).total_bytes == 8 << 30

    def test_total_bytes_multi_dev(self):
        cfg = HMCConfig(num_devs=2, capacity=2)
        assert cfg.total_bytes == 4 << 30

    def test_quads_fixed_at_four(self):
        assert NUM_QUADS == 4

    def test_vaults_per_quad(self):
        assert HMCConfig(num_vaults=32).vaults_per_quad == 8
        assert HMCConfig(num_vaults=16).vaults_per_quad == 4

    def test_links_per_quad(self):
        assert HMCConfig(num_links=4).links_per_quad == 1
        assert HMCConfig(num_links=8).links_per_quad == 2

    def test_quad_of_vault(self):
        cfg = HMCConfig(num_vaults=32)
        assert cfg.quad_of_vault(0) == 0
        assert cfg.quad_of_vault(7) == 0
        assert cfg.quad_of_vault(8) == 1
        assert cfg.quad_of_vault(31) == 3

    def test_quad_of_link_4l(self):
        cfg = HMCConfig(num_links=4)
        assert [cfg.quad_of_link(l) for l in range(4)] == [0, 1, 2, 3]

    def test_quad_of_link_8l(self):
        cfg = HMCConfig(num_links=8)
        assert [cfg.quad_of_link(l) for l in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_geometry_tuple(self):
        assert HMCConfig.cfg_4link_4gb().geometry() == (1, 4, 32, 16)
