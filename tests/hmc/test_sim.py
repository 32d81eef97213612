"""HMCSim context tests: lifecycle, tag policing, API errors."""

import gc
import io
import weakref

import pytest

from repro.core.cmc import CMCOperation, CMCRegistration
from repro.errors import HMCSimError, HMCStatus, TagError
from repro.hmc.commands import hmc_response_t, hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.hmc.trace import TraceLevel
from repro.host.engine import HostEngine


def _inline_op(rsp_len):
    """A CMC op at code 125 that writes nothing: responding (``rsp_len``
    2) or posted (``rsp_len`` 0)."""
    reg = CMCRegistration(
        op_name=f"op_rsp{rsp_len}", rqst=hmc_rqst_t.CMC125, cmd=125,
        rqst_len=2, rsp_len=rsp_len,
        rsp_cmd=hmc_response_t.RD_RS if rsp_len else hmc_response_t.RSP_NONE,
    )
    return CMCOperation(
        registration=reg,
        cmc_register=lambda: reg,
        cmc_execute=lambda *args: 0,
        cmc_str=lambda: reg.op_name,
    )


class TestConstruction:
    def test_from_config_object(self, cfg4):
        assert HMCSim(cfg4).config is cfg4

    def test_device_count(self):
        sim = HMCSim(HMCConfig(num_devs=3, capacity=2))
        assert len(sim.devices) == 3

    def test_repr_mentions_config(self, sim):
        assert "4Link-4GB" in repr(sim)


class TestLifecycle:
    def test_free_blocks_further_use(self, sim):
        sim.free()
        with pytest.raises(HMCSimError):
            sim.clock()
        with pytest.raises(HMCSimError):
            sim.send(None)  # type: ignore[arg-type]
        with pytest.raises(HMCSimError):
            sim.load_cmc("repro.cmc_ops.lock")
        with pytest.raises(HMCSimError):
            sim.mem_read(0, 8)

    @pytest.mark.parametrize(
        "num_devs, xbar", [(1, "queued"), (2, "queued"), (1, "vector")]
    )
    def test_dropped_context_is_freed_without_gc(self, num_devs, xbar):
        """Devices, the router and the vector crossbar hold their owner
        weakly, so a used context (and its page store) dies with its
        last reference — a sweep's footprint is one context, not one
        per point until the collector happens to run."""
        if xbar == "vector":
            pytest.importorskip("numpy")
        gc.disable()
        try:
            sim = HMCSim(HMCConfig(num_devs=num_devs, capacity=2, xbar=xbar))
            sim.send(sim.build_memrequest(hmc_rqst_t.WR16, 0, 1, data=bytes(16)))
            sim.drain()
            assert sim.devices[0].sim is sim
            if xbar == "vector":
                assert sim.devices[0].xbar.mode == "vector"
            ref, backend = weakref.ref(sim), weakref.ref(sim.backend)
            del sim
            assert ref() is None and backend() is None
        finally:
            gc.enable()

    def test_clock_returns_cycle(self, sim):
        assert sim.clock() == 1
        assert sim.clock(5) == 6
        assert sim.cycle == 6

    def test_drain_timeout(self, sim):
        # A request that can never complete (we never clock enough) —
        # simulate by filling a vault queue and setting max_cycles=0.
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        with pytest.raises(HMCSimError):
            sim.drain(max_cycles=0)


class TestTagPolicing:
    def test_duplicate_outstanding_tag_rejected(self, sim):
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 7))
        with pytest.raises(TagError):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 64, 7))

    def test_tag_freed_after_recv(self, sim, do_roundtrip):
        do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 7))
        # Same tag is reusable now.
        do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 64, 7))

    def test_posted_requests_do_not_hold_tags(self, sim):
        for _ in range(3):
            pkt = sim.build_memrequest(hmc_rqst_t.P_WR16, 0, 7, data=bytes(16))
            assert sim.send(pkt) is HMCStatus.OK

    def test_posted_cmc_reregistered_behind_load_cmc(self, sim):
        """The registry is public: swapping the op at a code through
        ``sim.cmc`` (not ``load_cmc``) must change the expects-a-response
        answer with it.  A stale "responding" answer parks the now-posted
        op's tag in the outstanding set forever."""
        sim.cmc.register(_inline_op(rsp_len=2))
        first = sim.build_memrequest(hmc_rqst_t.CMC125, 0x40, 7, data=bytes(16))
        assert sim.expects_response(first)
        sim.send(first)
        sim.drain()
        assert sim.recv() is not None  # memoized: CMC125 responds

        sim.cmc.unregister(125)
        sim.cmc.register(_inline_op(rsp_len=0))
        for _ in range(2):
            pkt = sim.build_memrequest(hmc_rqst_t.CMC125, 0x40, 7, data=bytes(16))
            assert not sim.expects_response(pkt)
            assert sim.send(pkt) is HMCStatus.OK  # one tag, twice: no TagError
        sim.drain()
        assert sim.recv() is None
        assert sim.stats()["outstanding"] == 0

    def test_deactivated_posted_cmc_is_answered(self, sim):
        """An inactive code is answered with RSP_ERROR even when the op
        registered there is posted; flipping ``op.active`` must flip the
        memoized answer, or that response arrives unawaited."""
        op = _inline_op(rsp_len=0)
        sim.cmc.register(op)
        pkt = sim.build_memrequest(hmc_rqst_t.CMC125, 0x40, 7, data=bytes(16))
        assert not sim.expects_response(pkt)
        op.active = False
        assert sim.expects_response(pkt)
        sim.send(pkt)
        assert sim.stats()["outstanding"] == 1
        sim.drain()
        rsp = sim.recv()
        assert rsp is not None and rsp.cmd == int(hmc_response_t.RSP_ERROR)
        assert sim.stats()["outstanding"] == 0
        op.active = True
        assert not sim.expects_response(pkt)

    def test_engine_follows_registry_epochs(self, sim):
        """``HostEngine`` answers expects-a-response from the context's
        epoch-keyed memo inline: after an unregister/register of a
        posted op and an ``active`` flip it must agree with
        :meth:`HMCSim.expects_response` — a stale answer would leave the
        thread WAITING for a response that never comes (or resume a
        posted send the device answers)."""
        sim.cmc.register(_inline_op(rsp_len=2))
        posted = _inline_op(rsp_len=0)
        seen = []

        def program(ctx):
            pkt = sim.build_memrequest(hmc_rqst_t.CMC125, 0x40, ctx.tid, data=bytes(16))
            seen.append((sim.expects_response(pkt), (yield pkt)))
            sim.cmc.unregister(125)
            sim.cmc.register(posted)
            seen.append((sim.expects_response(pkt), (yield pkt)))
            # Same vault queue: once this read is answered, the posted
            # op has executed, so the flip below cannot reach it.
            yield sim.build_memrequest(hmc_rqst_t.RD16, 0x40, ctx.tid)
            posted.active = False
            seen.append((sim.expects_response(pkt), (yield pkt)))

        engine = HostEngine(sim)
        engine.add_thread(program)
        result = engine.run()
        (e1, r1), (e2, r2), (e3, r3) = seen
        assert e1 and r1 is not None and r1.errstat == 0
        assert not e2 and r2 is None  # posted: resumed without a response
        assert e3 and r3.cmd == int(hmc_response_t.RSP_ERROR)  # inactive
        assert result.threads[0].responses == 3
        assert sim.stats()["outstanding"] == 0
        assert sim._cmc_expects_epoch == sim.cmc.epoch
        assert sim._cmc_expects[125] is True

    def test_registry_epoch_counts_mutations(self, sim):
        start = sim.cmc.epoch
        op = _inline_op(rsp_len=2)
        sim.cmc.register(op)
        op.active = False
        op.active = True
        sim.cmc.unregister(125)
        assert sim.cmc.epoch == start + 4
        op.active = False  # no longer held: nobody to tell
        assert sim.cmc.epoch == start + 4

    def test_same_tag_different_cubes_ok(self):
        sim = HMCSim(HMCConfig(num_devs=2, capacity=2))
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 7, cub=0), dev=0)
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 7, cub=1), dev=1)

    def test_stalled_send_does_not_hold_tag(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar_depth=2))
        for tag in range(2):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0, 9)
        assert sim.send(pkt) is HMCStatus.STALL
        sim.clock()
        # Retrying the same tag after a stall must not be a TagError.
        assert sim.send(pkt) is HMCStatus.OK


class TestAPIErrors:
    def test_send_bad_device(self, sim):
        with pytest.raises(HMCSimError):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 0), dev=5)

    @pytest.mark.parametrize("dev", [-1, 1])
    def test_direct_access_bad_device(self, sim, dev):
        """Direct memory and JTAG access name the device the way send
        does: -1 must not wrap to the last device, and one past the end
        is not a bare IndexError."""
        calls = [
            lambda: sim.mem_read(0, 16, dev=dev),
            lambda: sim.mem_write(0, bytes(16), dev=dev),
            lambda: sim.jtag_reg_read(dev, 0),
            lambda: sim.jtag_reg_write(dev, 0, 0),
        ]
        for call in calls:
            with pytest.raises(HMCSimError, match=f"no device {dev} in this context"):
                call()
        assert sim.mem_read(0, 16) == bytes(16)  # nothing was written

    def test_send_cub_beyond_single_cube(self):
        """A CUB naming no cube is refused before any state changes: it
        must not execute on cube 0, answer as cube 0, and leave its
        (cub, tag) outstanding forever."""
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0x1000, 5, cub=3)
        with pytest.raises(HMCSimError, match="no cube 3 in this context"):
            sim.send(pkt)
        sim.drain()
        assert sim.recv() is None
        stats = sim.stats()
        assert (stats["sent_rqsts"], stats["outstanding"]) == (0, 0)
        # Tag 5 was never taken: the same tag on a real cube goes through.
        fixed = sim.build_memrequest(hmc_rqst_t.RD16, 0x1000, 5, cub=0)
        assert sim.send(fixed) is HMCStatus.OK

    def test_send_cub_beyond_chain(self):
        """Two chained cubes: CUB 5 is refused at send, not forwarded to
        fail in the topology relay as an IndexError inside ``clock``."""
        sim = HMCSim(HMCConfig(num_devs=2, capacity=2))
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0x1000, 5, cub=5)
        with pytest.raises(HMCSimError, match="no cube 5 in this context"):
            sim.send(pkt, dev=1)
        sim.clock(8)
        assert sim.idle()
        assert sim.stats()["outstanding"] == 0
        with pytest.raises(HMCSimError, match="no device 2 in this context"):
            sim.send(pkt, dev=2)  # a bad device is still named first

    def test_send_bad_link(self, sim):
        with pytest.raises(HMCSimError, match="device 0 has no link 9"):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 0), link=9)

    @pytest.mark.parametrize("past_end", [False, True], ids=["minus1", "n"])
    @pytest.mark.parametrize("port", ["dev", "link"])
    @pytest.mark.parametrize("call", ["send", "recv", "recv_batch"])
    def test_host_interface_refuses_out_of_range_port(
        self, sim, call, port, past_end
    ):
        """An out-of-range ``dev`` or ``link`` is named by an
        HMCSimError: -1 must not wrap to the last cube or link, and one
        past the end is neither an IndexError nor the device's
        ValueError.  Nothing moves: the response waiting on link 3 (the
        one ``link=-1`` used to alias) stays there."""
        last = sim.config.num_links - 1
        waiting = sim.build_memrequest(hmc_rqst_t.RD16, 0, 1)
        assert sim.send(waiting, link=last) is HMCStatus.OK
        sim.drain()
        if port == "dev":
            bad = sim.config.num_devs if past_end else -1
            message = f"no device {bad} in this context"
        else:
            bad = sim.config.num_links if past_end else -1
            message = f"device 0 has no link {bad}"
        ports = {"dev": 0, "link": 0, port: bad}
        args = ()
        if call == "send":
            args = (sim.build_memrequest(hmc_rqst_t.RD16, 0, 2),)
        with pytest.raises(HMCSimError, match=message):
            getattr(sim, call)(*args, **ports)
        assert sim.stats()["sent_rqsts"] == 1
        rsp = sim.recv(link=last)
        assert rsp is not None and rsp.tag == 1

    def test_build_cmc_before_load_fails(self, sim):
        from repro.errors import CMCNotActiveError

        with pytest.raises(CMCNotActiveError):
            sim.build_memrequest(hmc_rqst_t.CMC125, 0, 0)

    def test_build_cmc_after_load(self, sim_with_mutex):
        pkt = sim_with_mutex.build_memrequest(hmc_rqst_t.CMC125, 0, 0, data=bytes(16))
        assert pkt.lng == 2


class TestTracingAPI:
    def test_trace_handle_and_level(self, sim, do_roundtrip):
        buf = io.StringIO()
        sim.trace_handle(buf)
        sim.trace_level(TraceLevel.ALL)
        do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        out = buf.getvalue()
        assert "RQST=RD16" in out
        assert "RSP=RD_RS" in out
        assert "LATENCY" in out

    def test_trace_off_by_default(self, sim, do_roundtrip):
        do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        assert list(sim.tracer.events) == []


class TestCheckCRC:
    def test_crc_checked_configs_roundtrip(self, do_roundtrip):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(check_crc=True))
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        assert rsp is not None


class TestStats:
    def test_counters(self, sim, do_roundtrip):
        do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        s = sim.stats()
        assert s["sent_rqsts"] == 1
        assert s["recvd_rsps"] == 1
        assert s["outstanding"] == 0

    def test_cmc_op_counters(self, sim_with_mutex, do_roundtrip):
        from repro.cmc_ops.mutex import build_lock, init_lock

        init_lock(sim_with_mutex, 0x40)
        do_roundtrip(sim_with_mutex, build_lock(sim_with_mutex, 0x40, 1, tid=9))
        assert sim_with_mutex.stats()["cmc_ops"]["hmc_lock"] == 1
