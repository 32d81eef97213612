"""Mutex CMC operation tests: the Table V pseudocode, end to end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmc_ops import base
from repro.cmc_ops.mutex import (
    MUTEX_PLUGINS,
    build_lock,
    build_trylock,
    build_unlock,
    decode_lock_response,
    init_lock,
    load_mutex_ops,
)
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

LOCK = 0x4000


@pytest.fixture
def msim(sim_with_mutex):
    init_lock(sim_with_mutex, LOCK)
    return sim_with_mutex


class TestLockStruct:
    def test_figure4_layout(self):
        # Fig. 4: lock value in [63:0], TID in [127:64].
        data = base.lock_struct_pack(tid=0xAB, lock=1)
        assert data[:8] == (1).to_bytes(8, "little")
        assert data[8:] == (0xAB).to_bytes(8, "little")

    def test_pack_unpack_roundtrip(self):
        tid, lock = base.lock_struct_unpack(base.lock_struct_pack(77, 1))
        assert (tid, lock) == (77, 1)

    def test_unpack_wrong_size(self):
        with pytest.raises(ValueError):
            base.lock_struct_unpack(bytes(8))

    @given(tid=st.integers(0, (1 << 64) - 1), lock=st.integers(0, (1 << 64) - 1))
    @settings(max_examples=30)
    def test_roundtrip_property(self, tid, lock):
        assert base.lock_struct_unpack(base.lock_struct_pack(tid, lock)) == (tid, lock)


class TestRegistrations:
    def test_table5_rows(self, msim):
        # Table V: commands, lengths, response types.
        ops = {op.cmd: op.registration for op in msim.cmc.operations()}
        assert ops[125].op_name == "hmc_lock"
        assert ops[125].rqst is hmc_rqst_t.CMC125
        assert ops[125].rqst_len == 2
        assert ops[125].rsp_len == 2
        assert ops[125].rsp_cmd is hmc_response_t.WR_RS
        assert ops[126].op_name == "hmc_trylock"
        assert ops[126].rsp_cmd is hmc_response_t.RD_RS
        assert ops[127].op_name == "hmc_unlock"
        assert ops[127].rsp_cmd is hmc_response_t.WR_RS

    def test_three_plugins(self):
        assert len(MUTEX_PLUGINS) == 3

    def test_load_returns_ops_in_code_order(self, sim):
        ops = load_mutex_ops(sim)
        assert [op.cmd for op in ops] == [125, 126, 127]


class TestHmcLock:
    def test_acquire_free_lock(self, msim, do_roundtrip):
        rsp = do_roundtrip(msim, build_lock(msim, LOCK, 1, tid=42))
        assert rsp.cmd == int(hmc_response_t.WR_RS)
        assert decode_lock_response(rsp.data) == 1
        tid, lock = base.lock_struct_unpack(msim.mem_read(LOCK, 16))
        assert (tid, lock) == (42, 1)

    def test_lock_held_returns_zero_and_preserves_owner(self, msim, do_roundtrip):
        do_roundtrip(msim, build_lock(msim, LOCK, 1, tid=42))
        rsp = do_roundtrip(msim, build_lock(msim, LOCK, 2, tid=43))
        assert decode_lock_response(rsp.data) == 0
        tid, lock = base.lock_struct_unpack(msim.mem_read(LOCK, 16))
        assert (tid, lock) == (42, 1)  # Table V: ELSE branch does not modify

    def test_nonzero_lock_value_means_held(self, msim, do_roundtrip):
        # "Any nonzero value indicates that the lock has been set."
        base.write_lock_struct(msim, 0, LOCK, tid=9, lock=0xFF)
        rsp = do_roundtrip(msim, build_lock(msim, LOCK, 1, tid=42))
        assert decode_lock_response(rsp.data) == 0


class TestHmcTrylock:
    def test_acquires_when_free_and_returns_own_tid(self, msim, do_roundtrip):
        rsp = do_roundtrip(msim, build_trylock(msim, LOCK, 1, tid=42))
        assert rsp.cmd == int(hmc_response_t.RD_RS)
        assert decode_lock_response(rsp.data) == 42
        tid, lock = base.lock_struct_unpack(msim.mem_read(LOCK, 16))
        assert (tid, lock) == (42, 1)

    def test_returns_holder_tid_when_held(self, msim, do_roundtrip):
        do_roundtrip(msim, build_lock(msim, LOCK, 1, tid=42))
        rsp = do_roundtrip(msim, build_trylock(msim, LOCK, 2, tid=43))
        # §V.A: "the response payload will contain the thread or task ID
        # of the unit of parallelism that currently holds the lock."
        assert decode_lock_response(rsp.data) == 42
        tid, _ = base.lock_struct_unpack(msim.mem_read(LOCK, 16))
        assert tid == 42


class TestHmcUnlock:
    def test_owner_can_unlock(self, msim, do_roundtrip):
        do_roundtrip(msim, build_lock(msim, LOCK, 1, tid=42))
        rsp = do_roundtrip(msim, build_unlock(msim, LOCK, 2, tid=42))
        assert decode_lock_response(rsp.data) == 1
        _, lock = base.lock_struct_unpack(msim.mem_read(LOCK, 16))
        assert lock == base.LOCK_FREE

    def test_non_owner_cannot_unlock(self, msim, do_roundtrip):
        do_roundtrip(msim, build_lock(msim, LOCK, 1, tid=42))
        rsp = do_roundtrip(msim, build_unlock(msim, LOCK, 2, tid=99))
        assert decode_lock_response(rsp.data) == 0
        tid, lock = base.lock_struct_unpack(msim.mem_read(LOCK, 16))
        assert (tid, lock) == (42, 1)

    def test_unlock_free_lock_fails(self, msim, do_roundtrip):
        rsp = do_roundtrip(msim, build_unlock(msim, LOCK, 1, tid=42))
        assert decode_lock_response(rsp.data) == 0

    def test_unlock_requires_lock_value_exactly_one(self, msim, do_roundtrip):
        # Table V: ADDR[63:0] == 1 (soft-lock values are not unlockable
        # by this primitive).
        base.write_lock_struct(msim, 0, LOCK, tid=42, lock=2)
        rsp = do_roundtrip(msim, build_unlock(msim, LOCK, 1, tid=42))
        assert decode_lock_response(rsp.data) == 0


class TestSequences:
    def test_lock_unlock_lock_cycle(self, msim, do_roundtrip):
        assert decode_lock_response(
            do_roundtrip(msim, build_lock(msim, LOCK, 1, tid=1)).data
        ) == 1
        assert decode_lock_response(
            do_roundtrip(msim, build_unlock(msim, LOCK, 2, tid=1)).data
        ) == 1
        assert decode_lock_response(
            do_roundtrip(msim, build_lock(msim, LOCK, 3, tid=2)).data
        ) == 1

    def test_trylock_handoff(self, msim, do_roundtrip):
        do_roundtrip(msim, build_trylock(msim, LOCK, 1, tid=1))
        do_roundtrip(msim, build_unlock(msim, LOCK, 2, tid=1))
        rsp = do_roundtrip(msim, build_trylock(msim, LOCK, 3, tid=2))
        assert decode_lock_response(rsp.data) == 2

    def test_multiple_locks_at_different_addresses(self, msim, do_roundtrip):
        for i, addr in enumerate([0x1000, 0x2000, 0x3000]):
            init_lock(msim, addr)
            rsp = do_roundtrip(msim, build_lock(msim, addr, i, tid=i + 1))
            assert decode_lock_response(rsp.data) == 1

    def test_decode_rejects_short_payload(self):
        with pytest.raises(ValueError):
            decode_lock_response(b"abc")

    @given(order=st.permutations([1, 2, 3]))
    @settings(max_examples=10, deadline=None)
    def test_mutual_exclusion_property(self, order):
        """No interleaving of lock attempts ever yields two owners."""
        from repro.hmc.config import HMCConfig
        from repro.hmc.sim import HMCSim

        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        load_mutex_ops(sim)
        init_lock(sim, LOCK)
        from tests.conftest import roundtrip

        successes = []
        for tid in order:
            rsp = roundtrip(sim, build_lock(sim, LOCK, tid, tid=tid))
            if decode_lock_response(rsp.data) == 1:
                successes.append(tid)
        assert successes == [order[0]]
