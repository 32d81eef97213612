"""Loader and template tests: the dlopen/dlsym analog and Table III/IV ABI."""

import textwrap
from types import SimpleNamespace

import pytest

from repro.core.loader import load_cmc, resolve_plugin_module
from repro.core.template import (
    EXECUTE_SYMBOL,
    CMCPluginSpec,
    make_registration,
    validate_plugin,
)
from repro.errors import CMCLoadError
from repro.hmc.commands import hmc_response_t, hmc_rqst_t


def minimal_plugin(**overrides):
    """A valid in-memory plugin object (SimpleNamespace = 'module')."""
    ns = SimpleNamespace(
        __name__="inline_plugin",
        OP_NAME="inline_op",
        RQST=hmc_rqst_t.CMC44,
        CMD=44,
        RQST_LEN=2,
        RSP_LEN=2,
        RSP_CMD=hmc_response_t.RD_RS,
        RSP_CMD_CODE=0,
    )

    def hmcsim_execute_cmc(hmc, dev, quad, vault, bank, addr, length,
                           head, tail, rqst_payload, rsp_payload):
        return 0

    ns.hmcsim_execute_cmc = hmcsim_execute_cmc
    for k, v in overrides.items():
        setattr(ns, k, v)
    return ns


class TestMakeRegistration:
    def test_from_statics(self):
        reg = make_registration(minimal_plugin())
        assert reg.op_name == "inline_op"
        assert reg.cmd == 44
        assert reg.rqst is hmc_rqst_t.CMC44

    def test_lowercase_statics_accepted(self):
        ns = SimpleNamespace(
            __name__="lc",
            op_name="lc_op", rqst=hmc_rqst_t.CMC45, cmd=45,
            rqst_len=1, rsp_len=0, rsp_cmd=hmc_response_t.RSP_NONE,
        )
        reg = make_registration(ns)
        assert reg.op_name == "lc_op"
        assert reg.posted

    @pytest.mark.parametrize("missing", ["OP_NAME", "RQST", "CMD", "RQST_LEN", "RSP_LEN", "RSP_CMD"])
    def test_missing_static_fails(self, missing):
        ns = minimal_plugin()
        delattr(ns, missing)
        with pytest.raises(CMCLoadError, match=missing):
            make_registration(ns)

    def test_rsp_cmd_code_optional(self):
        ns = minimal_plugin()
        del ns.RSP_CMD_CODE
        assert make_registration(ns).rsp_cmd_code == 0

    def test_non_string_name_fails(self):
        with pytest.raises(CMCLoadError, match="OP_NAME"):
            make_registration(minimal_plugin(OP_NAME=42))

    def test_bad_enum_values_fail(self):
        with pytest.raises(CMCLoadError):
            make_registration(minimal_plugin(RSP_CMD=999))

    def test_footprint_optional(self):
        assert make_registration(minimal_plugin()).footprint is None
        assert make_registration(minimal_plugin(FOOTPRINT=64)).footprint == 64
        assert make_registration(minimal_plugin(footprint=16)).footprint == 16

    @pytest.mark.parametrize("bad", [0, -16, "16", True])
    def test_bad_footprint_fails(self, bad):
        with pytest.raises(CMCLoadError, match="footprint"):
            make_registration(minimal_plugin(FOOTPRINT=bad))


class TestValidatePlugin:
    def test_valid_plugin(self):
        spec = validate_plugin(minimal_plugin())
        assert isinstance(spec, CMCPluginSpec)
        assert spec.registration.cmd == 44
        assert spec.str_fn() == "inline_op"

    def test_missing_execute_symbol_is_fatal(self):
        ns = minimal_plugin()
        del ns.hmcsim_execute_cmc
        with pytest.raises(CMCLoadError, match=EXECUTE_SYMBOL):
            validate_plugin(ns)

    def test_non_callable_execute(self):
        with pytest.raises(CMCLoadError, match=EXECUTE_SYMBOL):
            validate_plugin(minimal_plugin(hmcsim_execute_cmc="not-a-function"))

    def test_custom_cmc_str_used(self):
        ns = minimal_plugin()
        ns.cmc_str = lambda: "custom_name"
        assert validate_plugin(ns).str_fn() == "custom_name"

    def test_custom_cmc_register_used(self):
        ns = minimal_plugin()
        reg = make_registration(minimal_plugin(OP_NAME="override", CMD=46, RQST=hmc_rqst_t.CMC46))
        ns.cmc_register = lambda: reg
        assert validate_plugin(ns).registration.op_name == "override"

    def test_cmc_register_must_return_registration(self):
        ns = minimal_plugin()
        ns.cmc_register = lambda: {"op_name": "dict"}
        with pytest.raises(CMCLoadError, match="CMCRegistration"):
            validate_plugin(ns)

    def test_non_callable_register(self):
        with pytest.raises(CMCLoadError, match="cmc_register"):
            validate_plugin(minimal_plugin(cmc_register=5))

    def test_non_callable_str(self):
        with pytest.raises(CMCLoadError, match="cmc_str"):
            validate_plugin(minimal_plugin(cmc_str="name"))

    def test_inconsistent_registration_fails(self):
        with pytest.raises(CMCLoadError):
            validate_plugin(minimal_plugin(CMD=45))  # RQST says 44


class TestResolveSource:
    def test_module_object(self):
        import repro.cmc_ops.lock as lock_mod

        plugin, desc = resolve_plugin_module(lock_mod)
        assert plugin is lock_mod
        assert desc == "repro.cmc_ops.lock"

    def test_dotted_name(self):
        plugin, _ = resolve_plugin_module("repro.cmc_ops.unlock")
        assert plugin.OP_NAME == "hmc_unlock"

    def test_unknown_module(self):
        with pytest.raises(CMCLoadError, match="imported"):
            resolve_plugin_module("repro.cmc_ops.does_not_exist")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CMCLoadError, match="does not exist"):
            resolve_plugin_module(str(tmp_path / "nope.py"))

    def test_arbitrary_object(self):
        ns = minimal_plugin()
        plugin, desc = resolve_plugin_module(ns)
        assert plugin is ns


PLUGIN_FILE = textwrap.dedent(
    """
    from repro.hmc.commands import hmc_response_t, hmc_rqst_t

    OP_NAME = "file_op"
    RQST = hmc_rqst_t.CMC47
    CMD = 47
    RQST_LEN = 1
    RSP_LEN = 2
    RSP_CMD = hmc_response_t.RD_RS
    RSP_CMD_CODE = 0

    def cmc_str():
        return OP_NAME

    def hmcsim_execute_cmc(hmc, dev, quad, vault, bank, addr, length,
                           head, tail, rqst_payload, rsp_payload):
        rsp_payload[0] = 0x1234
        return 0
    """
)


class TestFileLoading:
    def test_load_from_py_file(self, tmp_path):
        path = tmp_path / "file_op.py"
        path.write_text(PLUGIN_FILE)
        op = load_cmc(str(path))
        assert op.op_name == "file_op"
        assert op.cmd == 47
        assert str(path) in op.source or "file_op" in op.source

    def test_load_from_path_object(self, tmp_path):
        path = tmp_path / "file_op2.py"
        path.write_text(PLUGIN_FILE)
        op = load_cmc(path)
        assert op.op_name == "file_op"

    def test_broken_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("this is not python (")
        with pytest.raises(CMCLoadError, match="failed to load"):
            load_cmc(str(path))

    def test_file_missing_symbol(self, tmp_path):
        path = tmp_path / "nosym.py"
        path.write_text(PLUGIN_FILE.replace("def hmcsim_execute_cmc", "def wrong_name"))
        with pytest.raises(CMCLoadError, match=EXECUTE_SYMBOL):
            load_cmc(str(path))

    def test_end_to_end_file_plugin_executes(self, tmp_path, sim, do_roundtrip):
        path = tmp_path / "file_op3.py"
        path.write_text(PLUGIN_FILE)
        sim.load_cmc(str(path))
        pkt = sim.build_memrequest(hmc_rqst_t.CMC47, 0x40, 1)
        rsp = do_roundtrip(sim, pkt)
        assert int.from_bytes(rsp.data[:8], "little") == 0x1234


class TestLoadCmc:
    def test_load_packaged_plugin(self):
        op = load_cmc("repro.cmc_ops.lock")
        assert op.cmd == 125
        assert op.active

    def test_load_inactive(self):
        op = load_cmc("repro.cmc_ops.lock", activate=False)
        assert not op.active

    def test_sim_load_cmc_registers(self, sim):
        op = sim.load_cmc("repro.cmc_ops.lock")
        assert sim.cmc.get(125) is op

    def test_sim_double_load_fails_atomically(self, sim):
        sim.load_cmc("repro.cmc_ops.lock")
        with pytest.raises(CMCLoadError):
            sim.load_cmc("repro.cmc_ops.lock")
        assert len(sim.cmc) == 1
