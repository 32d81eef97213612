"""End-to-end integration tests spanning the full stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmc_ops.mutex import (
    build_lock,
    build_trylock,
    build_unlock,
    decode_lock_response,
    init_lock,
    load_mutex_ops,
)
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from repro.host.kernels.mutex_kernel import mutex_program
from tests.conftest import roundtrip


class TestMixedWorkload:
    def test_cmc_and_builtin_traffic_interleave(self, sim_with_mutex):
        """The No Simulation Perturbation requirement: CMC ops and
        normal HMC commands share the pipeline without interference."""
        sim = sim_with_mutex
        init_lock(sim, 0x4000)
        sim.send(build_lock(sim, 0x4000, 1, tid=9), link=0)
        sim.send(sim.build_memrequest(hmc_rqst_t.WR16, 0x8000, 2, data=b"x" * 16), link=1)
        sim.send(sim.build_memrequest(hmc_rqst_t.INC8, 0xC000, 3), link=2)
        sim.clock(3)
        rsps = {}
        for link in range(3):
            rsp = sim.recv(link=link)
            assert rsp is not None
            rsps[rsp.tag] = rsp
        assert decode_lock_response(rsps[1].data) == 1
        assert sim.mem_read(0x8000, 16) == b"x" * 16
        assert sim.mem_read(0xC000, 8) == (1).to_bytes(8, "little")

    def test_seventy_cmc_ops_dispatch(self):
        """Fill the whole CMC space with generated plugins and hit each."""
        from types import SimpleNamespace

        from repro.hmc.commands import CMC_CODES, hmc_response_t

        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        for code in CMC_CODES:
            def make_exec(code=code):
                def execute(hmc, dev, quad, vault, bank, addr, length, head,
                            tail, rq, rs):
                    rs[0] = code
                    return 0
                return execute

            ns = SimpleNamespace(
                __name__=f"gen{code}",
                OP_NAME=f"gen_op_{code}",
                RQST=hmc_rqst_t(code),
                CMD=code,
                RQST_LEN=1,
                RSP_LEN=2,
                RSP_CMD=hmc_response_t.RD_RS,
                hmcsim_execute_cmc=make_exec(),
            )
            sim.load_cmc(ns)
        assert len(sim.cmc) == 70
        for i, code in enumerate(CMC_CODES[:10]):
            pkt = sim.build_memrequest(hmc_rqst_t(code), 0x40 * i, i)
            rsp = roundtrip(sim, pkt, link=i % 4)
            assert int.from_bytes(rsp.data[:8], "little") == code

    def test_trace_file_contains_cmc_names(self, tmp_path, sim_with_mutex):
        """Discrete tracing (§IV.A): CMC ops appear by name in the file."""
        from repro.hmc.trace import TraceLevel

        sim = sim_with_mutex
        trace_path = tmp_path / "trace.out"
        with open(trace_path, "w") as fh:
            sim.trace_handle(fh)
            sim.trace_level(TraceLevel.CMD)
            init_lock(sim, 0x40)
            roundtrip(sim, build_trylock(sim, 0x40, 1, tid=3))
            sim.trace_handle(None)
        text = trace_path.read_text()
        assert "RQST=hmc_trylock" in text


class TestConcurrentMutexCorrectness:
    @pytest.mark.parametrize("threads", [2, 7, 23])
    def test_exclusion_under_contention(self, threads):
        """Instrument the critical section: at most one thread inside."""
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        load_mutex_ops(sim)
        init_lock(sim, 0x0)
        in_cs = [0]
        max_in_cs = [0]
        entries = [0]

        def program(ctx):
            rsp = yield ctx.lock(0x0)
            if decode_lock_response(rsp.data) != 1:
                while True:
                    rsp = yield ctx.trylock(0x0)
                    if decode_lock_response(rsp.data) == ctx.tid_value:
                        break
            in_cs[0] += 1
            entries[0] += 1
            max_in_cs[0] = max(max_in_cs[0], in_cs[0])
            in_cs[0] -= 1
            yield ctx.unlock(0x0)

        engine = HostEngine(sim)
        engine.add_threads(threads, program)
        engine.run()
        assert entries[0] == threads
        assert max_in_cs[0] == 1

    def test_unlock_responses_all_successful(self):
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        load_mutex_ops(sim)
        init_lock(sim, 0x0)
        failures = [0]

        def program(ctx):
            rsp = yield ctx.lock(0x0)
            if decode_lock_response(rsp.data) != 1:
                while True:
                    rsp = yield ctx.trylock(0x0)
                    if decode_lock_response(rsp.data) == ctx.tid_value:
                        break
            rsp = yield ctx.unlock(0x0)
            if decode_lock_response(rsp.data) != 1:
                failures[0] += 1

        engine = HostEngine(sim)
        engine.add_threads(16, program)
        engine.run()
        assert failures[0] == 0


class TestDataIntegrityProperty:
    @given(
        blocks=st.lists(
            st.tuples(st.integers(0, 1023), st.binary(min_size=16, max_size=16)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_packetized_writes_match_direct_model(self, blocks):
        """Writing through packets == writing a flat reference model."""
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        model = {}
        for tag, (slot, data) in enumerate(blocks):
            addr = slot * 16
            pkt = sim.build_memrequest(hmc_rqst_t.WR16, addr, tag % 100, data=data)
            roundtrip(sim, pkt, link=tag % 4)
            model[slot] = data
        for slot, data in model.items():
            rsp = roundtrip(
                sim, sim.build_memrequest(hmc_rqst_t.RD16, slot * 16, 101)
            )
            assert rsp.data == data

    @given(adds=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_atomic_adds_sum_exactly(self, adds):
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        for tag, a in enumerate(adds):
            payload = (a & ((1 << 128) - 1)).to_bytes(16, "little")
            pkt = sim.build_memrequest(hmc_rqst_t.ADD16, 0x100, tag, data=payload)
            roundtrip(sim, pkt)
        got = int.from_bytes(sim.mem_read(0x100, 16), "little", signed=True)
        assert got == sum(adds)


class TestMultiDeviceEndToEnd:
    def test_mutex_on_remote_cube(self):
        sim = HMCSim(HMCConfig(num_devs=2, capacity=2))
        load_mutex_ops(sim)
        init_lock(sim, 0x40, dev=1)
        pkt = build_lock(sim, 0x40, 1, tid=5, cub=1)
        status = sim.send(pkt, dev=0)
        assert status.name == "OK"
        rsp = None
        for _ in range(60):
            sim.clock()
            rsp = sim.recv(dev=0)
            if rsp:
                break
        assert rsp is not None
        assert decode_lock_response(rsp.data) == 1
        from repro.cmc_ops import base

        tid, lock = base.lock_struct_unpack(sim.mem_read(0x40, 16, dev=1))
        assert (tid, lock) == (5, 1)
