"""Host engine tests: thread lifecycle, link assignment, calibration."""

import pytest

from repro.errors import HMCSimError
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from repro.host.thread import ThreadCtx, ThreadState


def read_program(ctx: ThreadCtx, addr=0, count=1):
    for i in range(count):
        yield ctx.read(addr + i * 64, 16)


def empty_program(ctx: ThreadCtx):
    return
    yield  # pragma: no cover


class TestThreadManagement:
    def test_round_robin_link_assignment(self, sim):
        engine = HostEngine(sim)
        threads = engine.add_threads(10, read_program)
        assert [t.ctx.link for t in threads] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_explicit_link(self, sim):
        engine = HostEngine(sim)
        t = engine.add_thread(read_program, link=2)
        assert t.ctx.link == 2

    def test_tid_value_is_tid_plus_one(self, sim):
        engine = HostEngine(sim)
        t = engine.add_thread(read_program)
        assert t.ctx.tid_value == t.tid + 1 == 1

    def test_thread_cap_is_tag_space(self, sim):
        engine = HostEngine(sim)
        engine.threads = [None] * 0x800  # simulate 2048 registered threads
        with pytest.raises(HMCSimError, match="tag space"):
            engine.add_thread(read_program)


class TestRunSemantics:
    def test_single_thread_single_read(self, sim):
        engine = HostEngine(sim)
        engine.add_thread(read_program)
        result = engine.run()
        assert len(result.threads) == 1
        assert result.threads[0].cycles == 3
        assert result.threads[0].requests == 1
        assert result.threads[0].responses == 1

    def test_two_sequential_reads_cost_six(self, sim):
        engine = HostEngine(sim)
        engine.add_thread(lambda ctx: read_program(ctx, count=2))
        result = engine.run()
        assert result.threads[0].cycles == 6

    def test_empty_program_finishes_at_zero(self, sim):
        engine = HostEngine(sim)
        engine.add_thread(empty_program)
        result = engine.run()
        assert result.threads[0].cycles == 0

    def test_parallel_threads_overlap(self, sim):
        engine = HostEngine(sim)
        engine.add_threads(4, read_program)  # one per link
        result = engine.run()
        assert result.max_cycle == 3  # fully parallel

    def test_min_max_avg(self, sim):
        engine = HostEngine(sim)
        engine.add_thread(lambda ctx: read_program(ctx, count=1))
        engine.add_thread(lambda ctx: read_program(ctx, count=3), link=1)
        result = engine.run()
        assert result.min_cycle == 3
        assert result.max_cycle == 9
        assert result.avg_cycle == 6.0

    def test_posted_program_completes(self, sim):
        def poster(ctx):
            for i in range(3):
                yield ctx.write(i * 64, bytes(16), posted=True)

        engine = HostEngine(sim)
        engine.add_thread(poster)
        result = engine.run()
        assert result.threads[0].requests == 3
        assert result.threads[0].responses == 0
        sim.drain()
        assert sim.mem_read(0, 16) == bytes(16)

    def test_max_cycles_guard(self, sim):
        def forever(ctx):
            addr = 0
            while True:
                yield ctx.read(addr, 16)

        engine = HostEngine(sim, max_cycles=50)
        engine.add_thread(forever)
        with pytest.raises(HMCSimError, match="did not complete"):
            engine.run()

    def test_stall_retry_under_tiny_queues(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar_depth=2, queue_depth=2))
        engine = HostEngine(sim)
        engine.add_threads(12, lambda ctx: read_program(ctx, count=2))
        result = engine.run()
        assert all(t.responses == 2 for t in result.threads)
        # With 12 threads on 4 two-deep queues, someone must have stalled.
        assert result.send_stalls > 0

    def test_windowed_run_ends_with_its_last_thread(self):
        # Threads that all start at cycle 0 finish together with the
        # run: no idle cycle is clocked after the last one completes.
        def batches(ctx, window):
            for i in range(8 // window):
                yield [ctx.read((i * window + s) * 64, 16) for s in range(window)]

        for window in (1, 4):
            engine = HostEngine(HMCSim(HMCConfig.cfg_4link_4gb()), window=window)
            engine.add_threads(8, lambda ctx: batches(ctx, window))
            result = engine.run()
            assert result.total_cycles == result.max_cycle
            assert result.max_cycle == (24 if window == 1 else 8)

    def test_thread_results_ordered_by_tid(self, sim):
        engine = HostEngine(sim)
        engine.add_threads(5, read_program)
        result = engine.run()
        assert [t.tid for t in result.threads] == [0, 1, 2, 3, 4]


class TestThreadCtxBuilders:
    def test_read_write_sizes(self, sim):
        ctx = ThreadCtx(sim, 0, 0)
        assert ctx.read(0, 64).lng == 1
        assert ctx.write(0, bytes(64)).lng == 5
        assert ctx.write(0, bytes(16), posted=True).rqst.name == "P_WR16"

    def test_bad_sizes_rejected(self, sim):
        ctx = ThreadCtx(sim, 0, 0)
        with pytest.raises(ValueError):
            ctx.read(0, 24)
        with pytest.raises(ValueError):
            ctx.write(0, bytes(24))

    def test_inc8_variants(self, sim):
        ctx = ThreadCtx(sim, 0, 0)
        assert ctx.inc8(0).rqst is hmc_rqst_t.INC8
        assert ctx.inc8(0, posted=True).rqst is hmc_rqst_t.P_INC8

    def test_caseq8_payload_layout(self, sim):
        ctx = ThreadCtx(sim, 0, 0)
        pkt = ctx.caseq8(0, compare=5, swap=9)
        assert pkt.data[:8] == (5).to_bytes(8, "little")
        assert pkt.data[8:] == (9).to_bytes(8, "little")

    def test_tag_is_tid(self, sim):
        ctx = ThreadCtx(sim, 7, 0)
        assert ctx.read(0).tag == 7

    def test_mutex_builders_need_loaded_ops(self, sim_with_mutex):
        ctx = ThreadCtx(sim_with_mutex, 3, 0)
        pkt = ctx.lock(0x40)
        assert pkt.cmd == 125
        assert pkt.data[:8] == (4).to_bytes(8, "little")  # tid_value
        assert ctx.trylock(0x40).cmd == 126
        assert ctx.unlock(0x40).cmd == 127

    def test_thread_state_enum(self, sim):
        engine = HostEngine(sim)
        t = engine.add_thread(read_program)
        assert t.state is ThreadState.READY
        engine.run()
        assert t.state is ThreadState.DONE
        assert t.done
        assert t.elapsed == 3
