"""Device pipeline tests: clock phases, latency calibration, stalls,
queue capacity semantics, and error responses."""

import pytest

from repro.errors import HMCStatus
from repro.hmc.commands import hmc_response_t, hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.hmc.vault import ERRSTAT_ADDRESS, ERRSTAT_CMC_INACTIVE


class TestRoundTripLatency:
    def test_uncontended_round_trip_is_three_cycles(self, sim):
        """The calibration behind the paper's MIN_CYCLE = 6: one
        request costs exactly 3 cycles (drain, execute, retire)."""
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0x100, 1)
        assert sim.send(pkt) is HMCStatus.OK
        assert sim.recv() is None
        sim.clock()
        assert sim.recv() is None  # cycle 1: xbar -> vault
        sim.clock()
        assert sim.recv() is None  # cycle 2: vault executes
        sim.clock()
        rsp = sim.recv()  # cycle 3: response retires
        assert rsp is not None
        assert rsp.retire_cycle - rsp.inject_cycle == 2

    def test_latency_independent_of_command(self, sim, do_roundtrip):
        for i, rqst in enumerate([hmc_rqst_t.RD16, hmc_rqst_t.INC8, hmc_rqst_t.RD256]):
            pkt = sim.build_memrequest(rqst, 0x1000 * (i + 1), i)
            start = sim.cycle
            do_roundtrip(sim, pkt)
            assert sim.cycle - start == 3, rqst.name

    def test_pipelining_multiple_links(self, sim):
        # Requests on different links complete in the same 3 cycles.
        for link in range(4):
            pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0x40 * link, link)
            assert sim.send(pkt, link=link) is HMCStatus.OK
        sim.clock(3)
        for link in range(4):
            assert sim.recv(link=link) is not None


class TestReadsWrites:
    @pytest.mark.parametrize("size", [16, 32, 48, 64, 80, 96, 112, 128, 256])
    def test_write_then_read_every_granule(self, size, sim, do_roundtrip):
        data = bytes((i * 7 + size) % 256 for i in range(size))
        wr = getattr(hmc_rqst_t, f"WR{size}")
        rd = getattr(hmc_rqst_t, f"RD{size}")
        rsp = do_roundtrip(sim, sim.build_memrequest(wr, 0x4000, 1, data=data))
        assert rsp.cmd == int(hmc_response_t.WR_RS)
        rsp = do_roundtrip(sim, sim.build_memrequest(rd, 0x4000, 2))
        assert rsp.data == data

    @pytest.mark.parametrize("size", [16, 64, 256])
    def test_posted_write_no_response(self, size, sim):
        data = bytes(size)
        wr = getattr(hmc_rqst_t, f"P_WR{size}")
        pkt = sim.build_memrequest(wr, 0x8000, 1, data=data)
        assert sim.send(pkt) is HMCStatus.OK
        sim.clock(6)
        assert sim.recv() is None
        assert sim.mem_read(0x8000, size) == data

    def test_read_cold_memory_is_zero(self, sim, do_roundtrip):
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD64, 0x9000, 1))
        assert rsp.data == bytes(64)

    def test_response_echoes_tag_and_slid(self, sim, do_roundtrip):
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, 0x155)
        rsp = do_roundtrip(sim, pkt, link=2)
        assert rsp.tag == 0x155
        assert rsp.slid == 2

    def test_flow_packets_consumed_silently(self, sim):
        pkt = sim.build_memrequest(hmc_rqst_t.PRET, 0, 0)
        assert sim.send(pkt) is HMCStatus.OK
        sim.clock(5)
        assert sim.recv() is None
        assert sim.devices[0].flow_packets == 1


class TestAtomicsThroughPipeline:
    def test_inc8(self, sim, do_roundtrip):
        sim.mem_write(0x100, (9).to_bytes(8, "little"))
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.INC8, 0x100, 1))
        assert rsp.cmd == int(hmc_response_t.WR_RS)
        assert sim.mem_read(0x100, 8) == (10).to_bytes(8, "little")

    def test_swap16_returns_original(self, sim, do_roundtrip):
        sim.mem_write(0x200, b"\x01" * 16)
        pkt = sim.build_memrequest(hmc_rqst_t.SWAP16, 0x200, 1, data=b"\x02" * 16)
        rsp = do_roundtrip(sim, pkt)
        assert rsp.data == b"\x01" * 16
        assert sim.mem_read(0x200, 16) == b"\x02" * 16

    def test_eq8_result_in_errstat(self, sim, do_roundtrip):
        from repro.hmc.amo import ERRSTAT_EQ_FAIL

        sim.mem_write(0x300, (5).to_bytes(8, "little"))
        payload = (5).to_bytes(8, "little") + bytes(8)
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.EQ8, 0x300, 1, data=payload))
        assert rsp.errstat == 0
        payload = (6).to_bytes(8, "little") + bytes(8)
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.EQ8, 0x300, 2, data=payload))
        assert rsp.errstat == ERRSTAT_EQ_FAIL


class TestErrorResponses:
    def test_unregistered_cmc_yields_error_response(self, sim, do_roundtrip):
        # §IV.C.2: a command not marked active is rejected.
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, 1)
        pkt.cmd = 125  # forge an unloaded CMC command
        rsp = do_roundtrip(sim, pkt)
        assert rsp.cmd == int(hmc_response_t.RSP_ERROR)
        assert rsp.errstat == ERRSTAT_CMC_INACTIVE
        assert sim.devices[0].cmc_rejects == 1

    def test_out_of_capacity_address_yields_error(self, do_roundtrip):
        sim = HMCSim(HMCConfig(capacity=2))
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, (2 << 30) + 64, 1)
        rsp = do_roundtrip(sim, pkt)
        assert rsp.cmd == int(hmc_response_t.RSP_ERROR)
        assert rsp.errstat == ERRSTAT_ADDRESS


class TestStalls:
    def test_send_stalls_when_xbar_full(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(queue_depth=2, xbar_depth=2))
        accepted = 0
        for tag in range(10):
            pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, tag)
            if sim.send(pkt) is HMCStatus.OK:
                accepted += 1
        assert accepted == 2
        assert sim.send_stalls == 8

    def test_stalled_send_succeeds_after_drain(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar_depth=2))
        for tag in range(2):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, 5)
        assert sim.send(pkt) is HMCStatus.STALL
        sim.clock()  # xbar drains into the vault queue
        assert sim.send(pkt) is HMCStatus.OK

    def test_vault_queue_backpressure(self):
        # Tiny vault queue: the xbar holds what the vault can't take.
        sim = HMCSim(HMCConfig.cfg_4link_4gb(queue_depth=2, xbar_depth=64))
        for tag in range(8):
            assert sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag)) is HMCStatus.OK
        sim.clock()
        # Vault queue holds 2; the rest remain in the xbar queue.
        assert len(sim.devices[0].vaults[0].rqst_queue) == 2
        assert len(sim.devices[0].xbar.rqst_queues[0]) == 6
        # Everything eventually completes.
        got = 0
        for _ in range(20):
            sim.clock()
            while sim.recv() is not None:
                got += 1
        assert got == 8

    def test_whole_vault_queue_processes_per_cycle(self, sim):
        # Queues model capacity, not issue rate: N requests queued at
        # one vault all execute in the same cycle.
        for tag in range(10):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        sim.clock()  # all 10 drain to vault 0
        assert len(sim.devices[0].vaults[0].rqst_queue) == 10
        sim.clock()  # all 10 execute
        assert len(sim.devices[0].vaults[0].rqst_queue) == 0

    def test_link_rsp_rate_bounds_retirement(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(link_rsp_rate=2))
        for tag in range(6):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        sim.clock(3)
        drained = 0
        while sim.recv() is not None:
            drained += 1
        assert drained == 2  # only link_rsp_rate responses retire per cycle
        sim.clock()
        while sim.recv() is not None:
            drained += 1
        assert drained == 4

    def test_vault_rsp_rate_bounds_execution(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(vault_rsp_rate=3, link_rsp_rate=64))
        for tag in range(8):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        sim.clock(2)  # drain + first execute cycle
        assert len(sim.devices[0].vaults[0].rqst_queue) == 5


class TestDrainAndStats:
    def test_idle_initially(self, sim):
        assert sim.idle()

    def test_drain_completes(self, sim):
        for tag in range(5):
            sim.send(sim.build_memrequest(hmc_rqst_t.P_WR16, tag * 16, tag, data=bytes(16)))
        assert not sim.idle()
        cycles = sim.drain()
        assert sim.idle()
        assert cycles <= 10

    def test_queue_stats_structure(self, sim, do_roundtrip):
        do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        stats = sim.stats()
        dev0 = stats["devices"]["dev0"]
        assert dev0["retired_rsps"] == 1
        assert any(q["pushes"] for q in dev0["queues"].values())
