"""Address-map tests: bijectivity and interleave layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HMCAddressError
from repro.hmc.addrmap import AddressMap
from repro.hmc.config import HMCConfig


@pytest.fixture
def amap():
    return AddressMap(HMCConfig.cfg_4link_4gb())


class TestDecode:
    def test_block_offset(self, amap):
        d = amap.decode(0x2A)
        assert d.offset == 0x2A
        assert d.vault == 0

    def test_vault_interleave_is_block_granular(self, amap):
        # Consecutive 64-byte blocks land in consecutive vaults.
        assert amap.decode(0).vault == 0
        assert amap.decode(64).vault == 1
        assert amap.decode(64 * 31).vault == 31
        assert amap.decode(64 * 32).vault == 0

    def test_bank_bits_above_vault_bits(self, amap):
        # After one full vault sweep the bank increments.
        assert amap.decode(64 * 32).bank == 1
        assert amap.decode(64 * 32 * 15).bank == 15
        assert amap.decode(64 * 32 * 16).bank == 0

    def test_row_increments_after_bank_sweep(self, amap):
        assert amap.decode(64 * 32 * 16).row == 1

    def test_quad_follows_vault(self, amap):
        d = amap.decode(64 * 9)  # vault 9 -> quad 1
        assert d.vault == 9
        assert d.quad == 1

    def test_out_of_range_rejected(self, amap):
        with pytest.raises(HMCAddressError):
            amap.decode(4 << 30)
        with pytest.raises(HMCAddressError):
            amap.decode(-1)

    def test_fast_paths_agree_with_decode(self, amap):
        for addr in (0, 64, 4096, 123456, (4 << 30) - 1):
            d = amap.decode(addr)
            assert amap.vault_of(addr) == d.vault
            assert amap.bank_of(addr) == d.bank
            assert amap.dev_of(addr) == d.dev

    def test_dram_in_range(self, amap):
        for addr in (0, 1 << 20, 1 << 30, (4 << 30) - 64):
            assert 0 <= amap.decode(addr).dram < 20


class TestEncode:
    def test_encode_decode_identity(self, amap):
        addr = amap.encode(vault=5, bank=3, row=77, offset=13)
        d = amap.decode(addr)
        assert (d.vault, d.bank, d.row, d.offset) == (5, 3, 77, 13)

    def test_encode_bounds(self, amap):
        with pytest.raises(HMCAddressError):
            amap.encode(vault=32, bank=0, row=0)
        with pytest.raises(HMCAddressError):
            amap.encode(vault=0, bank=16, row=0)
        with pytest.raises(HMCAddressError):
            amap.encode(vault=0, bank=0, row=1 << amap.row_bits)
        with pytest.raises(HMCAddressError):
            amap.encode(vault=0, bank=0, row=0, offset=64)
        with pytest.raises(HMCAddressError):
            amap.encode(vault=0, bank=0, row=0, dev=1)

    @given(addr=st.integers(0, (4 << 30) - 1))
    @settings(max_examples=200)
    def test_bijective_property(self, addr):
        amap = AddressMap(HMCConfig.cfg_4link_4gb())
        d = amap.decode(addr)
        assert amap.encode(d.vault, d.bank, d.row, d.offset, d.dev) == addr


class TestBlockSizes:
    @pytest.mark.parametrize("bsize", [32, 64, 128, 256])
    def test_offset_width_tracks_bsize(self, bsize):
        amap = AddressMap(HMCConfig(bsize=bsize))
        assert amap.decode(bsize - 1).vault == 0
        assert amap.decode(bsize).vault == 1

    def test_multi_dev_split(self):
        cfg = HMCConfig(num_devs=2, capacity=2)
        amap = AddressMap(cfg)
        assert amap.decode((2 << 30) - 1).dev == 0
        assert amap.decode(2 << 30).dev == 1

    def test_coordinates_helper(self):
        amap = AddressMap(HMCConfig.cfg_4link_4gb())
        dev, quad, vault, bank = amap.coordinates(64 * 9)
        assert (dev, quad, vault, bank) == (0, 1, 9, 0)

    def test_capacity_exactly_covered(self):
        # The highest address decodes; one past does not.
        amap = AddressMap(HMCConfig(capacity=2))
        amap.decode((2 << 30) - 1)
        with pytest.raises(HMCAddressError):
            amap.decode(2 << 30)


_ROUTED = [
    (factory, interleave, bsize)
    for factory in (HMCConfig.cfg_4link_4gb, HMCConfig.cfg_8link_8gb)
    for interleave in ("vault", "bank")
    for bsize in (32, 64, 128, 256)
]


class TestRoutingConstants:
    """The send path's inlined routing (``routing_constants``) agrees
    with ``decode`` for every interleave and block size."""

    @pytest.mark.parametrize("factory,interleave,bsize", _ROUTED)
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_inlined_routing_matches_decode(self, factory, interleave, bsize, data):
        cfg = factory(bsize=bsize, addr_interleave=interleave)
        amap = AddressMap(cfg)
        addr = data.draw(st.integers(0, cfg.total_bytes - 1))
        vault_lo, vault_mask, bank_lo, bank_mask, row_lo, row_mask = (
            amap.routing_constants()
        )
        local = addr & (cfg.capacity_bytes - 1)
        d = amap.decode(addr)
        assert (local >> vault_lo) & vault_mask == d.vault
        assert (local >> bank_lo) & bank_mask == d.bank
        assert (local >> row_lo) & row_mask == d.row
        assert amap.encode(d.vault, d.bank, d.row, d.offset, d.dev) == addr

    @pytest.mark.parametrize("bsize", [32, 64, 128, 256])
    def test_bank_interleave_sweeps_banks_first(self, bsize):
        cfg = HMCConfig.cfg_4link_4gb(bsize=bsize, addr_interleave="bank")
        amap = AddressMap(cfg)
        assert [amap.decode(i * bsize).bank for i in range(3)] == [0, 1, 2]
        assert amap.decode(cfg.num_banks * bsize).vault == 1
