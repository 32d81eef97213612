"""Windowed issue: HostEngine threads whose programs yield batches."""

import pytest

from repro.errors import HMCSimError
from repro.faults.watchdog import TagWatchdog
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine


def requests(result):
    return sum(t.requests for t in result.threads)


def batch_reads(ctx, base, batches, batch_size, stride=64):
    addr = base
    for _ in range(batches):
        rsps = yield [ctx.read(addr + i * stride, 16) for i in range(batch_size)]
        assert all(r is not None for r in rsps)
        addr += batch_size * stride


class TestWindowedBasics:
    def test_single_batch(self, sim):
        engine = HostEngine(sim, window=4)
        engine.add_thread(lambda ctx: batch_reads(ctx, 0, 1, 4))
        result = engine.run()
        assert requests(result) == 4
        # Four independent reads on one link pipeline in about one RTT.
        assert result.total_cycles <= 8

    def test_window_speedup_over_serial(self):
        # 16 reads: windowed issue must be much faster than serial.
        sim1 = HMCSim(HMCConfig.cfg_4link_4gb())
        e1 = HostEngine(sim1, window=1)
        e1.add_thread(lambda ctx: batch_reads(ctx, 0, 16, 1))
        serial = e1.run()

        sim2 = HMCSim(HMCConfig.cfg_4link_4gb())
        e2 = HostEngine(sim2, window=16)
        e2.add_thread(lambda ctx: batch_reads(ctx, 0, 1, 16))
        wide = e2.run()

        assert requests(serial) == requests(wide) == 16
        assert wide.total_cycles < serial.total_cycles / 2

    def test_batch_larger_than_window_rejected(self, sim):
        engine = HostEngine(sim, window=2)
        engine.add_thread(lambda ctx: batch_reads(ctx, 0, 1, 3))
        with pytest.raises(HMCSimError, match="window"):
            engine.run()

    def test_window_validation(self, sim):
        with pytest.raises(HMCSimError):
            HostEngine(sim, window=0)

    def test_tag_space_budget(self, sim):
        engine = HostEngine(sim, window=1024)
        engine.add_thread(lambda ctx: batch_reads(ctx, 0, 1, 1))
        engine.add_thread(lambda ctx: batch_reads(ctx, 0, 1, 1))
        with pytest.raises(HMCSimError, match="tag space"):
            engine.add_thread(lambda ctx: batch_reads(ctx, 0, 1, 1))

    def test_responses_ordered_by_slot(self, sim):
        # Write distinct blocks, then batch-read them; response list
        # order must match request order regardless of retire order.
        for i in range(6):
            sim.mem_write(0x1000 + i * 64, bytes([i]) * 16)

        seen = []

        def program(ctx):
            rsps = yield [ctx.read(0x1000 + i * 64, 16) for i in range(6)]
            seen.extend(r.data[0] for r in rsps)

        engine = HostEngine(sim, window=8)
        engine.add_thread(program)
        engine.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_posted_slots_resume_with_none(self, sim):
        got = []

        def program(ctx):
            rsps = yield [
                ctx.write(0x0, b"a" * 16, posted=True),
                ctx.read(0x40, 16),
            ]
            got.extend(rsps)

        engine = HostEngine(sim, window=2)
        engine.add_thread(program)
        engine.run()
        assert got[0] is None
        assert got[1] is not None
        assert sim.mem_read(0, 16) == b"a" * 16

    def test_multiple_threads_and_batches(self, sim):
        engine = HostEngine(sim, window=4)
        for t in range(8):
            engine.add_thread(
                lambda ctx, t=t: batch_reads(ctx, t * 0x10000, 3, 4)
            )
        result = engine.run()
        assert requests(result) == 8 * 3 * 4

    def test_max_cycles_guard(self, sim):
        def forever(ctx):
            while True:
                yield [ctx.read(0, 16)]

        engine = HostEngine(sim, window=1, max_cycles=30)
        engine.add_thread(forever)
        with pytest.raises(HMCSimError, match="did not complete"):
            engine.run()

    def test_stall_retry_with_tiny_queues(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar_depth=2, queue_depth=2))
        engine = HostEngine(sim, window=8)
        engine.add_thread(lambda ctx: batch_reads(ctx, 0, 2, 8))
        result = engine.run()
        assert requests(result) == 16
        assert result.send_stalls > 0

    def test_single_and_batch_threads_share_an_engine(self, sim):
        # With a window of 2, a one-request thread carries tag 2*tid,
        # so it cannot collide with a batch thread's second slot.
        def single(ctx):
            rsp = yield ctx.read(0x80, 16)
            assert rsp.tag == ctx.tag == 2

        engine = HostEngine(sim, window=2)
        engine.add_thread(lambda ctx: batch_reads(ctx, 0, 2, 2))
        engine.add_thread(single)
        result = engine.run()
        assert [t.requests for t in result.threads] == [4, 1]

    def test_batch_after_single_request_refused_by_name(self, sim):
        def mixed(ctx):
            yield ctx.read(0, 16)
            yield [ctx.read(0x40, 16)]

        engine = HostEngine(sim, window=2)
        engine.add_thread(lambda ctx: batch_reads(ctx, 0x1000, 1, 2))
        engine.add_thread(mixed)
        with pytest.raises(HMCSimError, match="thread 1 yielded a batch after a single request"):
            engine.run()

    def test_single_request_after_batch_refused_by_name(self, sim):
        def mixed(ctx):
            yield [ctx.read(0, 16)]
            yield ctx.read(0x40, 16)

        engine = HostEngine(sim, window=2)
        engine.add_thread(mixed)
        with pytest.raises(HMCSimError, match="thread 0 yielded RequestPacket after a batch"):
            engine.run()

    @pytest.mark.parametrize("machinery", ["watchdog", "oracle_sample", "recorder"])
    def test_batch_refused_beside_one_request_machinery(self, sim, machinery):
        engine = HostEngine(
            sim,
            window=2,
            watchdog=TagWatchdog(timeout=64) if machinery == "watchdog" else None,
            oracle_sample=4 if machinery == "oracle_sample" else None,
        )
        if machinery == "recorder":
            engine.recorder = object()
        engine.add_thread(lambda ctx: batch_reads(ctx, 0, 1, 2))
        with pytest.raises(HMCSimError, match="one-request threads only"):
            engine.run()


class TestBandwidthScaling:
    def test_bandwidth_grows_then_saturates(self):
        """Delivered reads/cycle must rise with window size and level
        off once device response bandwidth saturates."""
        rates = []
        for window in (1, 4, 16):
            sim = HMCSim(HMCConfig.cfg_4link_4gb())
            engine = HostEngine(sim, window=window)
            for t in range(4):
                engine.add_thread(
                    lambda ctx, t=t: batch_reads(ctx, t * 0x100000, 64 // window, window)
                )
            result = engine.run()
            rates.append(requests(result) / result.total_cycles)
        assert rates[1] > rates[0]
        assert rates[2] >= rates[1] * 0.9  # allow saturation plateau
