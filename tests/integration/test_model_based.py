"""Model-based property test: the full pipeline versus a flat reference.

Drives the simulator with randomized sequences of *every* data-bearing
Gen2 command (reads, writes, posted writes, all atomics) and checks
the final memory image — and every returned response payload — against
a pure-Python reference model that executes the same sequence against
a flat byte array.  Because requests are issued one-at-a-time
(sequential consistency is trivially defined), any divergence is a
pipeline bug, not a modelling ambiguity.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmc.amo import execute_amo, is_amo
from repro.hmc.commands import CommandKind, command_info, hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.memory import MemoryBackend
from repro.hmc.sim import HMCSim
from tests.conftest import roundtrip, with_flow

# The command pool: everything with deterministic data semantics.
_COMMANDS = [
    hmc_rqst_t.RD16,
    hmc_rqst_t.RD64,
    hmc_rqst_t.WR16,
    hmc_rqst_t.WR64,
    hmc_rqst_t.P_WR16,
    hmc_rqst_t.INC8,
    hmc_rqst_t.P_INC8,
    hmc_rqst_t.TWOADD8,
    hmc_rqst_t.ADD16,
    hmc_rqst_t.TWOADDS8R,
    hmc_rqst_t.ADDS16R,
    hmc_rqst_t.XOR16,
    hmc_rqst_t.OR16,
    hmc_rqst_t.AND16,
    hmc_rqst_t.NAND16,
    hmc_rqst_t.NOR16,
    hmc_rqst_t.CASEQ8,
    hmc_rqst_t.CASGT8,
    hmc_rqst_t.CASLT8,
    hmc_rqst_t.CASZERO16,
    hmc_rqst_t.EQ8,
    hmc_rqst_t.EQ16,
    hmc_rqst_t.BWR,
    hmc_rqst_t.BWR8R,
    hmc_rqst_t.SWAP16,
]

#: Eight 64-byte-aligned slots in a 512-byte arena.
_ARENA = 512


def _op_strategy():
    return st.tuples(
        st.sampled_from(_COMMANDS),
        st.integers(0, (_ARENA // 64) - 1),  # 64-byte-aligned slot
        st.binary(min_size=64, max_size=64),  # payload source bytes
    )


class _Reference:
    """Flat-memory reference executor."""

    def __init__(self):
        self.mem = MemoryBackend(_ARENA)

    def apply(self, rqst: hmc_rqst_t, addr: int, data: bytes) -> Tuple[bytes, int]:
        info = command_info(rqst)
        if info.kind is CommandKind.READ:
            return self.mem.read(addr, info.rsp_data_bytes or 0), 0
        if info.kind in (CommandKind.WRITE, CommandKind.POSTED_WRITE):
            self.mem.write(addr, data)
            return b"", 0
        assert is_amo(int(rqst))
        result = execute_amo(self.mem, addr, int(rqst), data)
        return result.rsp_data, result.errstat


@given(ops=st.lists(_op_strategy(), min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_pipeline_matches_reference_model(ops: List):
    sim = HMCSim(HMCConfig.cfg_4link_4gb())
    ref = _Reference()
    base = 1 << 20  # place the arena away from address zero

    for i, (rqst, slot, payload) in enumerate(ops):
        info = command_info(rqst)
        addr = slot * 64
        data = payload[: info.rqst_data_bytes or 0]
        pkt = sim.build_memrequest(rqst, base + addr, i % 512, data=data)
        want_data, want_errstat = ref.apply(rqst, addr, data)

        if info.posted:
            assert sim.send(pkt, link=i % 4).name == "OK"
            sim.drain()
        else:
            rsp = roundtrip(sim, pkt, link=i % 4)
            assert rsp.data == want_data, f"op {i}: {rqst.name} response payload"
            assert rsp.errstat == want_errstat, f"op {i}: {rqst.name} errstat"

    # Final memory images must agree byte for byte.
    assert sim.mem_read(base, _ARENA) == ref.mem.read(0, _ARENA)


@given(
    ops=st.lists(_op_strategy(), min_size=1, max_size=15),
    seed=st.integers(0, 3),
)
@settings(max_examples=10, deadline=None)
def test_pipeline_matches_reference_with_flow_control(ops: List, seed: int):
    """Same property with CRC-error injection: retries must not change
    any result (exactly-once delivery through the retry buffer)."""
    from repro.hmc.flow import ErrorModel, LinkFlowModel

    sim = with_flow(
        HMCConfig.cfg_4link_4gb(),
        LinkFlowModel(
            tokens_per_link=64,
            retry_latency=3,
            errors=ErrorModel(flit_error_rate=0.3, seed=seed),
        ),
    )
    ref = _Reference()
    base = 1 << 20

    for i, (rqst, slot, payload) in enumerate(ops):
        info = command_info(rqst)
        addr = slot * 64
        data = payload[: info.rqst_data_bytes or 0]
        pkt = sim.build_memrequest(rqst, base + addr, i % 512, data=data)
        want_data, want_errstat = ref.apply(rqst, addr, data)

        if info.posted:
            while sim.send(pkt, link=i % 4).name != "OK":
                sim.clock()
            sim.drain(max_cycles=10_000)
        else:
            while sim.send(pkt, link=i % 4).name != "OK":
                sim.clock()
            rsp = None
            for _ in range(10_000):
                sim.clock()
                rsp = sim.recv(link=i % 4)
                if rsp is not None:
                    break
            assert rsp is not None, f"op {i} never completed"
            assert rsp.data == want_data
            assert rsp.errstat == want_errstat

    assert sim.mem_read(base, _ARENA) == ref.mem.read(0, _ARENA)
