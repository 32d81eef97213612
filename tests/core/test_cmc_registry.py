"""CMC registry tests: the hmc_cmc_t table, its limits, and dispatch."""

import pytest

from repro.core.cmc import (
    MAX_CMC_OPS,
    CMCOperation,
    CMCRegistration,
    CMCRegistry,
)
from repro.errors import CMCExecutionError, CMCLoadError, CMCNotActiveError
from repro.hmc.commands import CMC_CODES, hmc_response_t, hmc_rqst_t


def make_reg(cmd=125, name="test_op", rqst_len=2, rsp_len=2,
             rsp_cmd=hmc_response_t.RD_RS, rsp_cmd_code=0):
    return CMCRegistration(
        op_name=name,
        rqst=hmc_rqst_t(cmd),
        cmd=cmd,
        rqst_len=rqst_len,
        rsp_len=rsp_len,
        rsp_cmd=rsp_cmd,
        rsp_cmd_code=rsp_cmd_code,
    )


def make_op(cmd=125, name="test_op", execute=None, **kw):
    reg = make_reg(cmd=cmd, name=name, **kw)
    if execute is None:
        def execute(hmc, dev, quad, vault, bank, addr, length, head, tail,
                    rqst_payload, rsp_payload):
            for i in range(len(rsp_payload)):
                rsp_payload[i] = i + 1
            return 0
    return CMCOperation(
        registration=reg,
        cmc_register=lambda: reg,
        cmc_execute=execute,
        cmc_str=lambda: name,
    )


class TestRegistrationValidation:
    def test_valid(self):
        make_reg().validate()

    def test_enum_code_mismatch(self):
        reg = CMCRegistration(
            op_name="x", rqst=hmc_rqst_t.CMC125, cmd=126,
            rqst_len=2, rsp_len=2, rsp_cmd=hmc_response_t.RD_RS,
        )
        with pytest.raises(CMCLoadError, match="does not match"):
            reg.validate()

    def test_spec_defined_code_rejected(self):
        reg = CMCRegistration(
            op_name="x", rqst=hmc_rqst_t.WR16, cmd=int(hmc_rqst_t.WR16),
            rqst_len=2, rsp_len=1, rsp_cmd=hmc_response_t.WR_RS,
        )
        with pytest.raises(CMCLoadError, match="defined by the HMC specification"):
            reg.validate()

    def test_empty_name(self):
        with pytest.raises(CMCLoadError):
            make_reg(name="").validate()

    @pytest.mark.parametrize("rqst_len", [0, 18, 100])
    def test_bad_rqst_len(self, rqst_len):
        with pytest.raises(CMCLoadError):
            make_reg(rqst_len=rqst_len).validate()

    def test_bad_rsp_len(self):
        with pytest.raises(CMCLoadError):
            make_reg(rsp_len=18).validate()

    def test_rsp_len_without_rsp_cmd(self):
        with pytest.raises(CMCLoadError, match="RSP_NONE"):
            make_reg(rsp_len=2, rsp_cmd=hmc_response_t.RSP_NONE).validate()

    def test_posted_registration_ok(self):
        make_reg(rsp_len=0, rsp_cmd=hmc_response_t.RSP_NONE).validate()

    def test_custom_rsp_code_range(self):
        make_reg(rsp_cmd=hmc_response_t.RSP_CMC, rsp_cmd_code=0x60).validate()
        with pytest.raises(CMCLoadError):
            make_reg(rsp_cmd=hmc_response_t.RSP_CMC, rsp_cmd_code=300).validate()

    def test_wire_rsp_cmd(self):
        assert make_reg().wire_rsp_cmd == int(hmc_response_t.RD_RS)
        assert (
            make_reg(rsp_cmd=hmc_response_t.RSP_CMC, rsp_cmd_code=0x42).wire_rsp_cmd
            == 0x42
        )

    def test_posted_property(self):
        assert make_reg(rsp_len=0, rsp_cmd=hmc_response_t.RSP_NONE).posted
        assert not make_reg().posted


class TestRegistryLimits:
    def test_register_and_lookup(self):
        r = CMCRegistry()
        op = make_op()
        r.register(op)
        assert 125 in r
        assert r.get(125) is op
        assert len(r) == 1

    def test_duplicate_code_rejected(self):
        r = CMCRegistry()
        r.register(make_op(cmd=125, name="a"))
        with pytest.raises(CMCLoadError, match="already registered"):
            r.register(make_op(cmd=125, name="b"))

    def test_duplicate_name_rejected(self):
        # Trace names must be unique (the op_name identifies ops in traces).
        r = CMCRegistry()
        r.register(make_op(cmd=125, name="same"))
        with pytest.raises(CMCLoadError, match="already used"):
            r.register(make_op(cmd=126, name="same"))

    def test_seventy_ops_fit(self):
        # §I: "load up to seventy disparate operations concurrently".
        r = CMCRegistry()
        for code in CMC_CODES:
            r.register(make_op(cmd=code, name=f"op{code}"))
        assert len(r) == MAX_CMC_OPS == 70
        assert r.free_codes() == ()

    def test_unregister_frees_slot(self):
        r = CMCRegistry()
        r.register(make_op(cmd=125, name="a"))
        r.unregister(125)
        assert 125 not in r
        r.register(make_op(cmd=125, name="a2"))

    def test_unregister_missing(self):
        with pytest.raises(CMCNotActiveError):
            CMCRegistry().unregister(125)

    def test_free_codes(self):
        r = CMCRegistry()
        r.register(make_op(cmd=125))
        free = r.free_codes()
        assert 125 not in free
        assert len(free) == 69

    def test_operations_sorted_by_code(self):
        r = CMCRegistry()
        r.register(make_op(cmd=127, name="c"))
        r.register(make_op(cmd=4, name="a"))
        assert [op.cmd for op in r.operations()] == [4, 127]


class TestActiveFlag:
    def test_inactive_rejected_at_dispatch(self):
        r = CMCRegistry()
        op = make_op()
        op.active = False
        r.register(op)
        with pytest.raises(CMCNotActiveError, match="not active"):
            r.get(125)

    def test_unregistered_code_not_active(self):
        with pytest.raises(CMCNotActiveError):
            CMCRegistry().get(126)

    def test_lookup_sees_inactive(self):
        r = CMCRegistry()
        op = make_op()
        op.active = False
        r.register(op)
        assert r.lookup(125) is op


class TestExecution:
    def _execute(self, registry, cmd=125, payload=(0, 0)):
        head = cmd & 0x7F
        return registry.execute(
            object(), dev=0, quad=0, vault=0, bank=0, addr=0x40,
            length=2, head=head, tail=0, rqst_payload=list(payload),
        )

    def test_dispatch_and_response(self):
        r = CMCRegistry()
        r.register(make_op())
        op, rsp_data, rsp_cmd = self._execute(r)
        assert rsp_data == (1).to_bytes(8, "little") + (2).to_bytes(8, "little")
        assert rsp_cmd == int(hmc_response_t.RD_RS)
        assert op.executions == 1

    def test_custom_response_code_on_wire(self):
        r = CMCRegistry()
        r.register(make_op(rsp_cmd=hmc_response_t.RSP_CMC, rsp_cmd_code=0x66))
        _, _, rsp_cmd = self._execute(r)
        assert rsp_cmd == 0x66

    def test_posted_op_empty_response(self):
        r = CMCRegistry()
        r.register(make_op(rsp_len=0, rsp_cmd=hmc_response_t.RSP_NONE))
        _, rsp_data, _ = self._execute(r)
        assert rsp_data == b""

    def test_nonzero_return_is_execution_error(self):
        r = CMCRegistry()
        r.register(make_op(execute=lambda *a: -1))
        with pytest.raises(CMCExecutionError, match="nonzero"):
            self._execute(r)

    def test_resizing_rsp_buffer_is_overflow(self):
        # The buffer-overflow misuse the paper cautions about.
        def bad(hmc, dev, quad, vault, bank, addr, length, head, tail, rq, rs):
            rs.append(0xFF)
            return 0

        r = CMCRegistry()
        r.register(make_op(execute=bad))
        with pytest.raises(CMCExecutionError, match="resized"):
            self._execute(r)

    def test_oversized_word_rejected(self):
        def bad(hmc, dev, quad, vault, bank, addr, length, head, tail, rq, rs):
            rs[0] = 1 << 64
            return 0

        r = CMCRegistry()
        r.register(make_op(execute=bad))
        with pytest.raises(CMCExecutionError, match="64-bit"):
            self._execute(r)

    def test_execute_receives_table_iv_arguments(self):
        seen = {}

        def spy(hmc, dev, quad, vault, bank, addr, length, head, tail, rq, rs):
            seen.update(
                hmc=hmc, dev=dev, quad=quad, vault=vault, bank=bank,
                addr=addr, length=length, head=head, tail=tail,
                rqst_payload=list(rq), n_rsp=len(rs),
            )
            return 0

        r = CMCRegistry()
        r.register(make_op(execute=spy))
        ctx = object()
        r.execute(
            ctx, dev=1, quad=2, vault=17, bank=3, addr=0xBEEF,
            length=2, head=125, tail=0xCAFE, rqst_payload=[7, 8],
        )
        assert seen["hmc"] is ctx
        assert (seen["dev"], seen["quad"], seen["vault"], seen["bank"]) == (1, 2, 17, 3)
        assert seen["addr"] == 0xBEEF
        assert seen["length"] == 2
        assert seen["tail"] == 0xCAFE
        assert seen["rqst_payload"] == [7, 8]
        assert seen["n_rsp"] == 2  # 2*(rsp_len-1) words

    def test_execution_counter(self):
        r = CMCRegistry()
        r.register(make_op())
        for _ in range(3):
            self._execute(r)
        assert r.get(125).executions == 3
