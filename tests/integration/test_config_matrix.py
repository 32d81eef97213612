"""Configuration-matrix tests: the pipeline works across every legal
device geometry, not just the paper's two evaluation configs."""

import pytest

from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from tests.conftest import roundtrip, run_workload

GEOMETRIES = [
    dict(num_links=4, capacity=2, num_vaults=16, num_banks=8, num_drams=16),
    dict(num_links=4, capacity=4, num_vaults=32, num_banks=16, num_drams=20),
    dict(num_links=8, capacity=8, num_vaults=32, num_banks=16, num_drams=20),
    dict(num_links=8, capacity=2, num_vaults=16, num_banks=16, num_drams=16),
    dict(num_links=4, capacity=8, num_vaults=32, num_banks=8, num_drams=20),
]

BSIZES = [32, 64, 128, 256]


@pytest.mark.parametrize("geom", GEOMETRIES, ids=lambda g: f"{g['num_links']}L-{g['capacity']}GB-{g['num_vaults']}v-{g['num_banks']}b")
class TestGeometryMatrix:
    def test_write_read_roundtrip(self, geom):
        sim = HMCSim(HMCConfig(**geom))
        data = bytes(range(64))
        roundtrip(sim, sim.build_memrequest(hmc_rqst_t.WR64, 0x4000, 1, data=data))
        rsp = roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD64, 0x4000, 2))
        assert rsp.data == data

    def test_atomic_on_every_geometry(self, geom):
        sim = HMCSim(HMCConfig(**geom))
        for tag in range(3):
            roundtrip(sim, sim.build_memrequest(hmc_rqst_t.INC8, 0x100, tag))
        assert sim.mem_read(0x100, 8) == (3).to_bytes(8, "little")

    def test_cmc_on_every_geometry(self, geom):
        from repro.cmc_ops.mutex import build_lock, decode_lock_response, init_lock, load_mutex_ops

        sim = HMCSim(HMCConfig(**geom))
        load_mutex_ops(sim)
        init_lock(sim, 0x40)
        rsp = roundtrip(sim, build_lock(sim, 0x40, 1, tid=5))
        assert decode_lock_response(rsp.data) == 1

    def test_every_vault_reachable(self, geom):
        cfg = HMCConfig(**geom)
        sim = HMCSim(cfg)
        for v in range(cfg.num_vaults):
            addr = sim.addrmap.encode(vault=v, bank=0, row=0)
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, addr, v), link=v % cfg.num_links)
        sim.drain()
        touched = sum(1 for vault in sim.devices[0].vaults if vault.processed)
        assert touched == cfg.num_vaults

    def test_last_byte_addressable(self, geom):
        cfg = HMCConfig(**geom)
        sim = HMCSim(cfg)
        last_block = cfg.capacity_bytes - 16
        roundtrip(sim, sim.build_memrequest(hmc_rqst_t.WR16, last_block, 1, data=b"z" * 16))
        assert sim.mem_read(last_block, 16) == b"z" * 16


@pytest.mark.parametrize("bsize", BSIZES)
class TestBlockSizeMatrix:
    def test_roundtrip_under_every_bsize(self, bsize):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(bsize=bsize))
        data = bytes((i * 3) % 256 for i in range(256))
        roundtrip(sim, sim.build_memrequest(hmc_rqst_t.WR256, 0x8000, 1, data=data))
        rsp = roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD256, 0x8000, 2))
        assert rsp.data == data

    def test_interleave_boundary(self, bsize):
        cfg = HMCConfig.cfg_4link_4gb(bsize=bsize)
        sim = HMCSim(cfg)
        assert sim.addrmap.vault_of(bsize - 1) == 0
        assert sim.addrmap.vault_of(bsize) == 1

    def test_mutex_min_cycle_invariant_to_bsize(self, bsize):
        # §V.B: the max block size "subsequently does not affect our
        # respective simulation" — a 16-byte lock never spans blocks.
        stats = run_workload("mutex", HMCConfig.cfg_4link_4gb(bsize=bsize), threads=2)
        assert stats.min_cycle == 6


class TestMultiDeviceMatrix:
    @pytest.mark.parametrize("devs", [2, 3, 4, 8])
    def test_chain_lengths(self, devs):
        sim = HMCSim(HMCConfig(num_devs=devs, capacity=2))
        pkt = sim.build_memrequest(
            hmc_rqst_t.WR16, 0x100, 1, cub=devs - 1, data=b"Q" * 16
        )
        sim.send(pkt, dev=0)
        sim.drain(max_cycles=10_000)
        # Collect the response from the entry device.
        rsp = None
        while rsp is None:
            rsp = sim.recv(dev=0)
            if rsp is None:
                sim.clock()
        assert rsp.cub == devs - 1
        assert sim.mem_read(0x100, 16, dev=devs - 1) == b"Q" * 16
