"""Device-internal path tests: response-path blocking, pending-response
holding, flow-token refunds, and clock-phase ordering effects."""

import pytest

from repro.errors import HMCStatus
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from tests.conftest import with_flow


class TestResponsePathBlocking:
    def test_vault_holds_pending_response_when_rsp_queue_full(self):
        """A full crossbar response queue must not lose the response of
        an already-executed request (the memory side effect happened)."""
        # rsp queue depth 2, retire rate 1: flood one link with reads.
        sim = HMCSim(
            HMCConfig.cfg_4link_4gb(xbar_depth=2, link_rsp_rate=1)
        )
        n = 8
        for tag in range(n):
            # Interleave sends with clocks so everything is accepted.
            while sim.send(
                sim.build_memrequest(hmc_rqst_t.RD16, tag * 16, tag), link=0
            ) is HMCStatus.STALL:
                sim.clock()
        got = []
        for _ in range(100):
            sim.clock()
            while True:
                rsp = sim.recv(link=0)
                if rsp is None:
                    break
                got.append(rsp.tag)
            if len(got) == n:
                break
        assert sorted(got) == list(range(n))
        # The blocked-response path was actually exercised.
        assert sim.devices[0].vaults[0].response_stalls > 0

    def test_pending_response_blocks_vault_but_not_device(self):
        """While vault 0 is blocked on its response push, another vault
        keeps executing."""
        sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar_depth=2, link_rsp_rate=1))
        # Saturate link 0's response path via vault 0.
        for tag in range(6):
            while sim.send(
                sim.build_memrequest(hmc_rqst_t.RD16, 0 + tag * 4096, tag), link=0
            ) is HMCStatus.STALL:
                sim.clock()
        # A read to a different vault on a different link flows freely.
        other_vault_addr = 64  # vault 1
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, other_vault_addr, 100), link=1)
        for _ in range(10):
            sim.clock()
            rsp = sim.recv(link=1)
            if rsp is not None:
                assert rsp.tag == 100
                break
        else:
            raise AssertionError("vault 1 was starved by vault 0's stall")


class TestFlowTokenRefundPath:
    def test_refund_when_xbar_full(self):
        """Tokens granted for a packet the crossbar rejects are handed
        back — send() returning STALL never leaks credit."""
        from repro.hmc.flow import LinkFlowModel

        flow = LinkFlowModel(tokens_per_link=64)
        sim = with_flow(HMCConfig.cfg_4link_4gb(xbar_depth=2), flow)
        sent, stalled = 0, 0
        for tag in range(6):
            status = sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag), link=0)
            if status is HMCStatus.OK:
                sent += 1
            else:
                stalled += 1
        assert sent == 2 and stalled == 4
        # Only the two accepted packets hold tokens.
        assert flow.state(0, 0).tokens == 64 - 2 * 1
        sim.drain()
        while sim.recv() is not None:
            pass
        assert flow.state(0, 0).tokens == 64


class TestCounters:
    def test_retired_and_flow_counters(self, sim, do_roundtrip):
        do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        pret = sim.build_memrequest(hmc_rqst_t.PRET, 0, 0)
        sim.send(pret)
        sim.clock(3)
        dev = sim.devices[0]
        assert dev.retired_rsps == 1
        assert dev.flow_packets == 1

    def test_link_flit_accounting(self, sim, do_roundtrip):
        do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.WR64, 0, 1, data=bytes(64)))
        link = sim.devices[0].links[0]
        assert link.flits_in == 5  # WR64 request
        assert link.flits_out == 1  # WR_RS response
        assert link.rqsts_in == 1
        assert link.rsps_out == 1

    def test_pending_responses_visible(self, sim):
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        sim.clock(3)
        assert sim.devices[0].links[0].pending_responses() == 1
        sim.recv()
        assert sim.devices[0].links[0].pending_responses() == 0


class TestNonlocalHops:
    def test_hop_penalty_delays_nonlocal_requests(self):
        cfg = HMCConfig.cfg_4link_4gb(nonlocal_hop_cycles=3)
        sim = HMCSim(cfg)
        # Vault 0 lives in quad 0 = link 0's quad; link 3 is non-local.
        results = {}
        for link in (0, 3):
            pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, link)
            sim.send(pkt, link=link)
        for _ in range(20):
            sim.clock()
            for link in (0, 3):
                rsp = sim.recv(link=link)
                if rsp is not None:
                    results[link] = sim.cycle
        assert results[0] < results[3]
        assert results[3] - results[0] == 3

    def test_zero_hop_default_symmetric(self, sim):
        results = {}
        for link in range(4):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, link), link=link)
        for _ in range(10):
            sim.clock()
            for link in range(4):
                rsp = sim.recv(link=link)
                if rsp is not None:
                    results[link] = sim.cycle
        assert len(set(results.values())) == 1
