"""Tests for the second wave of CMC ops: ticket lock, cas128, amax64,
fetchclear64, list push, dot product."""

import pytest

from repro.cmc_ops.ticket import (
    decode_enter,
    decode_serving,
    init_ticket_lock,
    load_ticket_ops,
)
from repro.errors import WorkloadError
from repro.hmc.commands import hmc_rqst_t
from tests.conftest import run_workload

_M64 = (1 << 64) - 1


def u64(v):
    return (v & _M64).to_bytes(8, "little")


#: The ticket ops' commands; each request is one FLIT with no payload.
ENTER, WAIT, EXIT = hmc_rqst_t.CMC21, hmc_rqst_t.CMC22, hmc_rqst_t.CMC23


class TestTicketOps:
    @pytest.fixture
    def tsim(self, sim):
        load_ticket_ops(sim)
        init_ticket_lock(sim, 0x100)
        return sim

    def test_first_enter_owns_immediately(self, tsim, do_roundtrip):
        rsp = do_roundtrip(tsim, tsim.build_memrequest(ENTER, 0x100, 1))
        my, serving = decode_enter(rsp.data)
        assert my == 0 and serving == 0  # arrival owns the lock

    def test_tickets_issued_in_order(self, tsim, do_roundtrip):
        tickets = []
        for tag in range(4):
            rsp = do_roundtrip(tsim, tsim.build_memrequest(ENTER, 0x100, tag))
            tickets.append(decode_enter(rsp.data)[0])
        assert tickets == [0, 1, 2, 3]

    def test_wait_reports_serving(self, tsim, do_roundtrip):
        do_roundtrip(tsim, tsim.build_memrequest(ENTER, 0x100, 1))
        rsp = do_roundtrip(tsim, tsim.build_memrequest(WAIT, 0x100, 2))
        assert decode_serving(rsp.data) == 0

    def test_exit_advances_serving(self, tsim, do_roundtrip):
        do_roundtrip(tsim, tsim.build_memrequest(ENTER, 0x100, 1))
        rsp = do_roundtrip(tsim, tsim.build_memrequest(EXIT, 0x100, 2))
        assert decode_serving(rsp.data) == 1
        rsp = do_roundtrip(tsim, tsim.build_memrequest(WAIT, 0x100, 3))
        assert decode_serving(rsp.data) == 1

    def test_full_handoff_sequence(self, tsim, do_roundtrip):
        # Two arrivals; second must wait until first exits.
        r1 = do_roundtrip(tsim, tsim.build_memrequest(ENTER, 0x100, 1))
        r2 = do_roundtrip(tsim, tsim.build_memrequest(ENTER, 0x100, 2))
        t1, s1 = decode_enter(r1.data)
        t2, s2 = decode_enter(r2.data)
        assert (t1, s1) == (0, 0)
        assert (t2, s2) == (1, 0)  # not yet served
        do_roundtrip(tsim, tsim.build_memrequest(EXIT, 0x100, 3))
        rsp = do_roundtrip(tsim, tsim.build_memrequest(WAIT, 0x100, 4))
        assert decode_serving(rsp.data) == 1 == t2

    def test_enter_is_one_flit(self, tsim):
        assert tsim.build_memrequest(ENTER, 0x100, 1).lng == 1


class TestTicketKernel:
    def test_fifo_order_under_contention(self, cfg4):
        stats = run_workload("ticket", cfg4, threads=24)
        assert stats.fifo_order  # the whole point of a ticket lock
        assert stats.min_cycle >= 6

    def test_single_thread_fast_path(self, cfg4):
        stats = run_workload("ticket", cfg4, threads=1)
        # enter (owns immediately) + exit = two round trips.
        assert stats.max_cycle == 6

    def test_comparable_magnitude_to_mutex(self, cfg4):
        t = run_workload("ticket", cfg4, threads=50)
        m = run_workload("mutex", cfg4, threads=50)
        assert 0.3 < t.max_cycle / m.max_cycle < 3.0

    def test_invalid_thread_count(self, cfg4):
        with pytest.raises(WorkloadError, match="'threads' must be"):
            run_workload("ticket", cfg4, threads=0)


class TestCas128:
    @pytest.fixture
    def csim(self, sim):
        sim.load_cmc("repro.cmc_ops.cas128")
        return sim

    def _cas(self, sim, do_roundtrip, addr, compare, swap, tag):
        payload = compare + swap
        pkt = sim.build_memrequest(hmc_rqst_t.CMC36, addr, tag, data=payload)
        assert pkt.lng == 3  # 32-byte payload: a 3-FLIT CMC request
        rsp = do_roundtrip(sim, pkt)
        return rsp.data

    def test_hit_swaps(self, csim, do_roundtrip):
        csim.mem_write(0x100, b"\x05" * 16)
        orig = self._cas(csim, do_roundtrip, 0x100, b"\x05" * 16, b"\x09" * 16, 1)
        assert orig == b"\x05" * 16
        assert csim.mem_read(0x100, 16) == b"\x09" * 16

    def test_miss_preserves(self, csim, do_roundtrip):
        csim.mem_write(0x100, b"\x06" * 16)
        orig = self._cas(csim, do_roundtrip, 0x100, b"\x05" * 16, b"\x09" * 16, 1)
        assert orig == b"\x06" * 16
        assert csim.mem_read(0x100, 16) == b"\x06" * 16

    def test_full_width_compare(self, csim, do_roundtrip):
        # Differ only in the top byte: Gen2 CAS16 variants can't see it
        # independently of the swap value; cas128 must.
        mem = bytes(15) + b"\x01"
        csim.mem_write(0x100, mem)
        self._cas(csim, do_roundtrip, 0x100, bytes(16), b"\xaa" * 16, 1)
        assert csim.mem_read(0x100, 16) == mem  # compare failed


class TestAmax64:
    @pytest.fixture
    def asim(self, sim):
        sim.load_cmc("repro.cmc_ops.amax64")
        return sim

    def _amax(self, sim, do_roundtrip, value, tag):
        pkt = sim.build_memrequest(
            hmc_rqst_t.CMC37, 0x100, tag, data=u64(value) + bytes(8)
        )
        rsp = do_roundtrip(sim, pkt)
        return int.from_bytes(rsp.data[:8], "little")

    def test_takes_maximum(self, asim, do_roundtrip):
        asim.mem_write(0x100, u64(5))
        assert self._amax(asim, do_roundtrip, 9, 1) == 5
        assert asim.mem_read(0x100, 8) == u64(9)

    def test_keeps_larger_memory(self, asim, do_roundtrip):
        asim.mem_write(0x100, u64(50))
        self._amax(asim, do_roundtrip, 9, 1)
        assert asim.mem_read(0x100, 8) == u64(50)

    def test_signed(self, asim, do_roundtrip):
        asim.mem_write(0x100, u64(-10))
        self._amax(asim, do_roundtrip, -3, 1)  # -3 > -10 signed
        assert asim.mem_read(0x100, 8) == u64(-3)

    def test_watermark_pattern(self, asim, do_roundtrip):
        for tag, v in enumerate([3, 17, 5, 17, 11]):
            self._amax(asim, do_roundtrip, v, tag)
        assert asim.mem_read(0x100, 8) == u64(17)


class TestFetchClear:
    @pytest.fixture
    def fsim(self, sim):
        sim.load_cmc("repro.cmc_ops.fetchclear64")
        return sim

    def test_fetch_and_clear(self, fsim, do_roundtrip):
        fsim.mem_write(0x100, u64(0xBEEF))
        pkt = fsim.build_memrequest(hmc_rqst_t.CMC38, 0x100, 1)
        assert pkt.lng == 1
        rsp = do_roundtrip(fsim, pkt)
        assert int.from_bytes(rsp.data[:8], "little") == 0xBEEF
        assert fsim.mem_read(0x100, 8) == bytes(8)

    def test_second_fetch_sees_zero(self, fsim, do_roundtrip):
        fsim.mem_write(0x100, u64(7))
        do_roundtrip(fsim, fsim.build_memrequest(hmc_rqst_t.CMC38, 0x100, 1))
        rsp = do_roundtrip(fsim, fsim.build_memrequest(hmc_rqst_t.CMC38, 0x100, 2))
        assert int.from_bytes(rsp.data[:8], "little") == 0

    def test_only_target_word_cleared(self, fsim, do_roundtrip):
        fsim.mem_write(0x100, u64(1) + u64(2))
        do_roundtrip(fsim, fsim.build_memrequest(hmc_rqst_t.CMC38, 0x100, 1))
        assert fsim.mem_read(0x108, 8) == u64(2)


class TestListPush:
    ARENA = 0x10000
    DESC = 0x100

    @pytest.fixture
    def lsim(self, sim):
        sim.load_cmc("repro.cmc_ops.listpush")
        from repro.cmc_ops.listpush import init_list

        init_list(sim, self.DESC, self.ARENA)
        return sim

    def _push(self, sim, do_roundtrip, value, tag):
        pkt = sim.build_memrequest(
            hmc_rqst_t.CMC39, self.DESC, tag, data=u64(value) + bytes(8)
        )
        rsp = do_roundtrip(sim, pkt)
        return int.from_bytes(rsp.data[:8], "little")

    def test_first_push(self, lsim, do_roundtrip):
        node = self._push(lsim, do_roundtrip, 0xAA, 1)
        assert node == self.ARENA
        # Node contents: [value, next=0].
        assert lsim.mem_read(node, 16) == u64(0xAA) + bytes(8)
        # Descriptor: head = node, bump advanced.
        desc = lsim.mem_read(self.DESC, 16)
        assert int.from_bytes(desc[:8], "little") == node
        assert int.from_bytes(desc[8:], "little") == self.ARENA + 16

    def test_lifo_chain(self, lsim, do_roundtrip):
        for tag, v in enumerate([1, 2, 3]):
            self._push(lsim, do_roundtrip, v, tag)
        # Walk the list host-side: 3 -> 2 -> 1.
        head = int.from_bytes(lsim.mem_read(self.DESC, 8), "little")
        values = []
        while head:
            node = lsim.mem_read(head, 16)
            values.append(int.from_bytes(node[:8], "little"))
            head = int.from_bytes(node[8:], "little")
        assert values == [3, 2, 1]

    def test_concurrent_pushes_linearize(self, lsim):
        """Many threads pushing concurrently: no node lost, no cycle."""
        from repro.host.engine import HostEngine

        def producer(ctx, values):
            for v in values:
                yield ctx.request(
                    hmc_rqst_t.CMC39, self.DESC, data=u64(v) + bytes(8)
                )

        engine = HostEngine(lsim)
        n_threads, per = 8, 4
        for t in range(n_threads):
            vals = [t * 100 + i for i in range(per)]
            engine.add_thread(lambda ctx, vals=vals: producer(ctx, vals))
        engine.run()
        head = int.from_bytes(lsim.mem_read(self.DESC, 8), "little")
        seen = []
        while head:
            node = lsim.mem_read(head, 16)
            seen.append(int.from_bytes(node[:8], "little"))
            head = int.from_bytes(node[8:], "little")
        assert len(seen) == n_threads * per
        assert len(set(seen)) == len(seen)  # every push exactly once


class TestDotProd:
    @pytest.fixture
    def dsim(self, sim):
        sim.load_cmc("repro.cmc_ops.dotprod")
        return sim

    def _dot(self, sim, do_roundtrip, x, y, tag=1):
        base = 0x1000
        sim.mem_write(base, b"".join((v & _M64).to_bytes(8, "little") for v in x))
        sim.mem_write(base + 64, b"".join((v & _M64).to_bytes(8, "little") for v in y))
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.CMC41, base, tag))
        return int.from_bytes(rsp.data[:8], "little", signed=False)

    def test_simple(self, dsim, do_roundtrip):
        x = [1, 2, 3, 4, 5, 6, 7, 8]
        y = [8, 7, 6, 5, 4, 3, 2, 1]
        assert self._dot(dsim, do_roundtrip, x, y) == sum(a * b for a, b in zip(x, y))

    def test_signed_values(self, dsim, do_roundtrip):
        x = [-1, 2, -3, 4, 0, 0, 0, 0]
        y = [5, -6, 7, -8, 0, 0, 0, 0]
        want = sum(a * b for a, b in zip(x, y)) & _M64
        assert self._dot(dsim, do_roundtrip, x, y) == want

    def test_one_flit_request_three_flit_total_traffic(self, dsim):
        # 128 bytes of operands never cross the link.
        pkt = dsim.build_memrequest(hmc_rqst_t.CMC41, 0x1000, 1)
        assert pkt.lng == 1
