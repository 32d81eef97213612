"""Multi-device chaining tests: CUB routing and return trips."""

import pytest

from repro.errors import HMCStatus
from repro.hmc.commands import hmc_response_t, hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim


@pytest.fixture
def chain2():
    """Two chained 2GB cubes."""
    return HMCSim(HMCConfig(num_devs=2, capacity=2))


@pytest.fixture
def chain4():
    """Four chained 2GB cubes."""
    return HMCSim(HMCConfig(num_devs=4, capacity=2))


def run_until_response(sim, *, dev=0, link=0, max_cycles=100):
    for _ in range(max_cycles):
        sim.clock()
        rsp = sim.recv(dev=dev, link=link)
        if rsp is not None:
            return rsp
    raise AssertionError("no response")


class TestLocalStillWorks:
    def test_local_request_unaffected_by_chaining(self, chain2):
        pkt = chain2.build_memrequest(hmc_rqst_t.WR16, 0x100, 1, cub=0, data=b"A" * 16)
        assert chain2.send(pkt, dev=0) is HMCStatus.OK
        rsp = run_until_response(chain2)
        assert rsp.cmd == int(hmc_response_t.WR_RS)
        assert chain2.mem_read(0x100, 16, dev=0) == b"A" * 16


class TestForwarding:
    def test_request_reaches_remote_cube(self, chain2):
        pkt = chain2.build_memrequest(hmc_rqst_t.WR16, 0x200, 1, cub=1, data=b"B" * 16)
        chain2.send(pkt, dev=0)
        rsp = run_until_response(chain2)
        assert rsp.cub == 1  # executed on cube 1
        assert chain2.mem_read(0x200, 16, dev=1) == b"B" * 16
        # Cube 0's copy of that address is untouched.
        assert chain2.mem_read(0x200, 16, dev=0) == bytes(16)

    def test_response_returns_to_origin_link(self, chain2):
        pkt = chain2.build_memrequest(hmc_rqst_t.RD16, 0x0, 2, cub=1)
        chain2.send(pkt, dev=0, link=3)
        rsp = run_until_response(chain2, link=3)
        assert rsp.tag == 2

    def test_remote_costs_more_cycles_than_local(self, chain2):
        pkt = chain2.build_memrequest(hmc_rqst_t.RD16, 0, 1, cub=0)
        chain2.send(pkt, dev=0)
        local_cycles = 0
        start = chain2.cycle
        run_until_response(chain2)
        local_cycles = chain2.cycle - start

        pkt = chain2.build_memrequest(hmc_rqst_t.RD16, 0, 2, cub=1)
        chain2.send(pkt, dev=0)
        start = chain2.cycle
        run_until_response(chain2)
        remote_cycles = chain2.cycle - start
        assert remote_cycles > local_cycles

    def test_multi_hop_chain(self, chain4):
        pkt = chain4.build_memrequest(hmc_rqst_t.WR16, 0x40, 1, cub=3, data=b"C" * 16)
        chain4.send(pkt, dev=0)
        rsp = run_until_response(chain4, max_cycles=300)
        assert rsp.cub == 3
        assert chain4.mem_read(0x40, 16, dev=3) == b"C" * 16

    def test_hop_count_scales_latency(self, chain4):
        cycles = []
        for target in (1, 3):
            pkt = chain4.build_memrequest(hmc_rqst_t.RD16, 0, target, cub=target)
            chain4.send(pkt, dev=0)
            start = chain4.cycle
            run_until_response(chain4, max_cycles=300)
            cycles.append(chain4.cycle - start)
        assert cycles[1] > cycles[0]

    def test_forward_counters(self, chain2):
        pkt = chain2.build_memrequest(hmc_rqst_t.RD16, 0, 1, cub=1)
        chain2.send(pkt, dev=0)
        run_until_response(chain2)
        assert chain2.devices[0].forwarded_rqsts == 1
        assert chain2.topology.forwarded_requests == 1
        assert chain2.topology.forwarded_responses == 1
        assert chain2.topology.in_transit == 0

    def test_send_directly_to_second_cube(self, chain2):
        # Hosts can attach to any cube in the chain.
        pkt = chain2.build_memrequest(hmc_rqst_t.RD16, 0, 1, cub=1)
        chain2.send(pkt, dev=1)
        rsp = run_until_response(chain2, dev=1)
        assert rsp.cub == 1

    def test_atomic_on_remote_cube(self, chain2):
        chain2.mem_write(0x80, (7).to_bytes(8, "little"), dev=1)
        pkt = chain2.build_memrequest(hmc_rqst_t.INC8, 0x80, 1, cub=1)
        chain2.send(pkt, dev=0)
        run_until_response(chain2)
        assert chain2.mem_read(0x80, 8, dev=1) == (8).to_bytes(8, "little")


class TestDrainWithChain:
    def test_drain_covers_in_transit(self, chain2):
        pkt = chain2.build_memrequest(
            hmc_rqst_t.P_WR16, 0x300, 1, cub=1, data=b"D" * 16
        )
        chain2.send(pkt, dev=0)
        chain2.drain()
        assert chain2.mem_read(0x300, 16, dev=1) == b"D" * 16

    def test_topology_rejects_bad_hop_cycles(self, chain2):
        from repro.hmc.topology import Topology

        with pytest.raises(ValueError):
            Topology(chain2, hop_cycles=0)

    def test_topology_rejects_bad_kind(self, chain2):
        from repro.hmc.topology import Topology

        with pytest.raises(ValueError):
            Topology(chain2, kind="torus")


class TestRingTopology:
    @pytest.fixture
    def ring4(self):
        return HMCSim(HMCConfig(num_devs=4, capacity=2, topology="ring"))

    def test_hop_distance_wraps(self, ring4):
        # Cube 0 -> cube 3 is one hop backward around the ring.
        assert ring4.topology.hop_distance(0, 3) == 1
        assert ring4.topology.hop_distance(0, 2) == 2
        assert ring4.topology.hop_distance(0, 1) == 1

    def test_chain_distance_does_not_wrap(self, chain4):
        assert chain4.topology.hop_distance(0, 3) == 3

    def test_ring_shortcut_is_faster(self, chain4, ring4):
        cycles = {}
        for sim, name in ((chain4, "chain"), (ring4, "ring")):
            pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, 1, cub=3)
            sim.send(pkt, dev=0)
            start = sim.cycle
            run_until_response(sim, max_cycles=300)
            cycles[name] = sim.cycle - start
        assert cycles["ring"] < cycles["chain"]

    def test_ring_request_completes_and_writes(self, ring4):
        pkt = ring4.build_memrequest(
            hmc_rqst_t.WR16, 0x80, 1, cub=3, data=b"R" * 16
        )
        ring4.send(pkt, dev=0)
        rsp = run_until_response(ring4, max_cycles=300)
        assert rsp.cub == 3
        assert ring4.mem_read(0x80, 16, dev=3) == b"R" * 16

    def test_ring_with_two_cubes_degenerates_to_chain(self):
        sim = HMCSim(HMCConfig(num_devs=2, capacity=2, topology="ring"))
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, 1, cub=1)
        sim.send(pkt, dev=0)
        assert run_until_response(sim).cub == 1

    def test_every_cube_reachable_on_ring(self, ring4):
        for cub in range(4):
            pkt = ring4.build_memrequest(hmc_rqst_t.RD16, 0, cub + 10, cub=cub)
            ring4.send(pkt, dev=0)
            rsp = run_until_response(ring4, max_cycles=300)
            assert rsp.cub == cub
