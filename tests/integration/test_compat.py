"""C-compatible API tests: the hmcsim_* facade behaves like the original."""

import io

import pytest

from repro.compat import (
    HMC_ERROR,
    HMC_OK,
    HMC_STALL,
    hmcsim_build_memrequest,
    hmcsim_clock,
    hmcsim_decode_memresponse,
    hmcsim_free,
    hmcsim_init,
    hmcsim_jtag_reg_read,
    hmcsim_jtag_reg_write,
    hmcsim_load_cmc,
    hmcsim_recv,
    hmcsim_send,
    hmcsim_trace_handle,
    hmcsim_trace_level,
    hmcsim_util_decode_vault,
    hmcsim_util_set_max_blocksize,
)
from repro.hmc.commands import hmc_response_t, hmc_rqst_t
from repro.hmc.registers import HMC_REG


def make_ctx(**kw):
    args = dict(
        num_devs=1, num_links=4, num_vaults=32, queue_depth=64,
        num_banks=16, num_drams=20, capacity=4, xbar_depth=128,
    )
    args.update(kw)
    return hmcsim_init(**args)


class TestInit:
    def test_valid_init(self):
        assert make_ctx() is not None

    def test_invalid_init_returns_none(self):
        # The C API returns -1 instead of raising.
        assert make_ctx(num_links=5) is None
        assert make_ctx(capacity=3) is None
        assert make_ctx(queue_depth=0) is None

    def test_non_integral_field_returns_none(self):
        # A float is not a capacity: None, not a TypeError mid-build.
        assert hmcsim_init(1, 4, 32, 64, 16, 20, 4.0, 128) is None

    def test_free(self):
        hmc = make_ctx()
        assert hmcsim_free(hmc) == HMC_OK
        assert hmcsim_clock(hmc) == HMC_ERROR

    def test_set_max_blocksize(self):
        hmc = make_ctx()
        assert hmcsim_util_set_max_blocksize(hmc, 128) == HMC_OK
        assert hmc.config.bsize == 128
        assert hmcsim_util_set_max_blocksize(hmc, 48) == HMC_ERROR

    def test_set_max_blocksize_routes_by_the_new_map(self):
        # 0x40 is vault 1 at the 64-byte default and vault 0 at 128.
        hmc = make_ctx()
        assert hmcsim_util_set_max_blocksize(hmc, 128) == HMC_OK
        vault = hmcsim_util_decode_vault(hmc, 0x40)
        vaults = hmc.devices[0].vaults
        before = [v.processed for v in vaults]
        _, _, packet = hmcsim_build_memrequest(hmc, 0, 0x40, 1, hmc_rqst_t.RD16, 0)
        assert hmcsim_send(hmc, packet, 0, 0) == HMC_OK
        for _ in range(3):
            assert hmcsim_clock(hmc) == HMC_OK
        assert hmcsim_recv(hmc, 0, 0) is not None
        grown = [i for i, v in enumerate(vaults) if v.processed > before[i]]
        assert grown == [vault] == [0]


class TestTraffic:
    def test_full_write_read_cycle(self):
        hmc = make_ctx()
        payload = [0x1111111111111111, 0x2222222222222222]
        built = hmcsim_build_memrequest(hmc, 0, 0x1000, 1, hmc_rqst_t.WR16, 0, payload)
        assert built is not None
        head, tail, packet = built
        assert head & 0x7F == int(hmc_rqst_t.WR16)
        assert hmcsim_send(hmc, packet, 0, 0) == HMC_OK
        for _ in range(3):
            assert hmcsim_clock(hmc) == HMC_OK
        words = hmcsim_recv(hmc, 0, 0)
        assert words is not None
        rsp = hmcsim_decode_memresponse(words)
        assert rsp.cmd == int(hmc_response_t.WR_RS)
        assert rsp.tag == 1

        built = hmcsim_build_memrequest(hmc, 0, 0x1000, 2, hmc_rqst_t.RD16, 0)
        _, _, packet = built
        hmcsim_send(hmc, packet, 0, 0)
        for _ in range(3):
            hmcsim_clock(hmc)
        rsp = hmcsim_decode_memresponse(hmcsim_recv(hmc, 0, 0))
        assert rsp.data == bytes.fromhex("1111111111111111" + "2222222222222222")

    def test_recv_empty_returns_none(self):
        hmc = make_ctx()
        assert hmcsim_recv(hmc, 0, 0) is None

    def test_send_stall_code(self):
        hmc = make_ctx(xbar_depth=2)
        _, _, packet = hmcsim_build_memrequest(hmc, 0, 0, 0, hmc_rqst_t.RD16, 0)
        assert hmcsim_send(hmc, packet, 0, 0) == HMC_OK
        _, _, p2 = hmcsim_build_memrequest(hmc, 0, 0, 1, hmc_rqst_t.RD16, 0)
        assert hmcsim_send(hmc, p2, 0, 0) == HMC_OK
        _, _, p3 = hmcsim_build_memrequest(hmc, 0, 0, 2, hmc_rqst_t.RD16, 0)
        assert hmcsim_send(hmc, p3, 0, 0) == HMC_STALL

    def test_send_garbage_is_error(self):
        hmc = make_ctx()
        assert hmcsim_send(hmc, [0, 0, 0], 0, 0) == HMC_ERROR

    def test_send_bad_link_is_error(self):
        hmc = make_ctx()
        _, _, packet = hmcsim_build_memrequest(hmc, 0, 0, 0, hmc_rqst_t.RD16, 0)
        assert hmcsim_send(hmc, packet, 0, 9) == HMC_ERROR

    @pytest.mark.parametrize("link", [-1, 9])
    def test_recv_bad_link_returns_none(self, link):
        """Not an IndexError, and -1 does not alias link 3's response."""
        hmc = make_ctx()
        _, _, packet = hmcsim_build_memrequest(hmc, 0, 0, 0, hmc_rqst_t.RD16, 0)
        assert hmcsim_send(hmc, packet, 0, 3) == HMC_OK
        for _ in range(3):
            hmcsim_clock(hmc)
        assert hmcsim_recv(hmc, 0, link) is None
        assert hmcsim_recv(hmc, 0, 3) is not None

    def test_build_bad_request_returns_none(self):
        hmc = make_ctx()
        assert hmcsim_build_memrequest(hmc, 0, 0, 5000, hmc_rqst_t.RD16, 0) is None


class TestCMCAndJTAG:
    def test_load_cmc_ok(self):
        hmc = make_ctx()
        assert hmcsim_load_cmc(hmc, "repro.cmc_ops.lock") == HMC_OK

    def test_load_cmc_failure_code(self):
        hmc = make_ctx()
        assert hmcsim_load_cmc(hmc, "no.such.module") == HMC_ERROR
        hmcsim_load_cmc(hmc, "repro.cmc_ops.lock")
        assert hmcsim_load_cmc(hmc, "repro.cmc_ops.lock") == HMC_ERROR

    def test_cmc_roundtrip_through_compat(self):
        hmc = make_ctx()
        hmcsim_load_cmc(hmc, "repro.cmc_ops.lock")
        tid_payload = [42, 0]
        _, _, packet = hmcsim_build_memrequest(
            hmc, 0, 0x40, 1, hmc_rqst_t.CMC125, 0, tid_payload
        )
        assert hmcsim_send(hmc, packet, 0, 0) == HMC_OK
        for _ in range(3):
            hmcsim_clock(hmc)
        rsp = hmcsim_decode_memresponse(hmcsim_recv(hmc, 0, 0))
        assert int.from_bytes(rsp.data[:8], "little") == 1  # lock acquired

    def test_jtag(self):
        hmc = make_ctx()
        assert hmcsim_jtag_reg_write(hmc, 0, HMC_REG["EDR0"], 0x77) == HMC_OK
        assert hmcsim_jtag_reg_read(hmc, 0, HMC_REG["EDR0"]) == 0x77
        assert hmcsim_jtag_reg_read(hmc, 0, 0xBAD00) is None
        assert hmcsim_jtag_reg_write(hmc, 0, 0xBAD00, 1) == HMC_ERROR

    def test_trace_facade(self):
        hmc = make_ctx()
        buf = io.StringIO()
        assert hmcsim_trace_handle(hmc, buf) == HMC_OK
        assert hmcsim_trace_level(hmc, 0xFF) == HMC_OK
        _, _, packet = hmcsim_build_memrequest(hmc, 0, 0, 1, hmc_rqst_t.RD16, 0)
        hmcsim_send(hmc, packet, 0, 0)
        for _ in range(3):
            hmcsim_clock(hmc)
        hmcsim_recv(hmc, 0, 0)
        assert "HMCSIM_TRACE" in buf.getvalue()
