"""Fault registry, spec parsing, and plan validation tests."""

import pickle

import pytest

from repro.errors import FaultError
from repro.faults.plan import DEFAULT_FAULT_SEED, FaultPlan, FaultSpec
from repro.faults.registry import FAULTS, FaultKind


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert FAULTS.keys() == (
            "cmc_crash",
            "dram_bitflip",
            "link_crc",
            "vault_stall",
            "xbar_drop",
            "xbar_dup",
        )

    def test_get_unknown_kind_lists_known(self):
        with pytest.raises(FaultError, match="xbar_drop"):
            FAULTS.get("nope")

    def test_describe_rows(self):
        rows = FAULTS.describe()
        assert all(len(row) == 3 for row in rows)
        keys = [k for k, _, _ in rows]
        assert keys == sorted(keys)

    def test_register_validates(self):
        # A kind's primary parameter must be one of its defaults; the
        # duplicate/replace rule is the shared registry contract.
        with pytest.raises(FaultError, match="primary"):
            FaultKind("x", object, primary="rate", defaults=(("other", 1),), doc="")
        kind = FaultKind("x", int, primary="rate", defaults=(("rate", 0.0),), doc="")
        assert kind.factory is int

    def test_resolve_params_rejects_unknown(self):
        kind = FAULTS.get("vault_stall")
        with pytest.raises(FaultError, match="no parameter 'bogus'"):
            kind.resolve_params({"bogus": 1})
        merged = kind.resolve_params({"rate": 0.5})
        assert merged == {"rate": 0.5, "duration": 8}


class TestSpecParsing:
    def test_bare_value_binds_primary(self):
        spec = FaultSpec.parse("dram_bitflip=3e-4")
        assert spec.kind == "dram_bitflip"
        assert spec.param_dict()["rate"] == 3e-4

    def test_named_params(self):
        spec = FaultSpec.parse("vault_stall=1e-3,duration=4")
        assert spec.param_dict() == {"rate": 1e-3, "duration": 4}

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec.parse("warp_core_breach=0.1")

    def test_unknown_param_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec.parse("xbar_drop=0.1,flavor=strange")

    def test_malformed_specs_rejected(self):
        for bad in ("xbar_drop", "=0.1", "xbar_drop=", "xbar_drop=0.1,,"):
            with pytest.raises(FaultError):
                FaultSpec.parse(bad)

    def test_rate_out_of_range_rejected_at_build(self):
        # Refused when the plan is parsed, before any context is built.
        with pytest.raises(FaultError, match=r"'rate' must be a number in \[0.0, 1.0\], got 1.5"):
            FaultPlan.parse(["xbar_drop=1.5"])


class TestPlan:
    def test_duplicate_kind_rejected(self):
        with pytest.raises(FaultError, match="more than once"):
            FaultPlan.parse(["xbar_drop=0.1", "xbar_drop=0.2"])

    def test_seed_validated(self):
        with pytest.raises(FaultError, match="64 bits"):
            FaultPlan(seed=1 << 64)

    def test_fingerprint_sensitivity(self):
        base = FaultPlan.parse(["xbar_drop=0.1"])
        assert base.fingerprint() == FaultPlan.parse(["xbar_drop=0.1"]).fingerprint()
        assert base.fingerprint() != FaultPlan.parse(["xbar_drop=0.2"]).fingerprint()
        assert (
            base.fingerprint()
            != FaultPlan.parse(["xbar_drop=0.1"], seed=1).fingerprint()
        )
        assert base.fingerprint() != FaultPlan.parse(["xbar_dup=0.1"]).fingerprint()

    def test_fingerprint_reuses_the_resolved_params(self, monkeypatch):
        # Resolved once, at construction: a sweep's cache keys call
        # fingerprint() per point and must not re-run the resolution.
        plan = FaultPlan.parse(["vault_stall=1e-3"])
        before = plan.fingerprint()

        def refuse(kind, params):
            raise AssertionError("resolved again")

        monkeypatch.setattr(FaultKind, "resolve_params", refuse)
        assert plan.fingerprint() == before
        assert plan.specs[0].param_dict() == {"rate": 1e-3, "duration": 8}

    def test_derived_seeds_distinct_per_kind_and_index(self):
        plan = FaultPlan.parse(["xbar_drop=0.1", "xbar_dup=0.1"])
        assert plan.derived_seed(0, "xbar_drop") != plan.derived_seed(1, "xbar_dup")
        assert plan.derived_seed(0, "xbar_drop") != plan.derived_seed(1, "xbar_drop")

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse(["vault_stall=1e-3,duration=4"], seed=9)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.fingerprint() == plan.fingerprint()

    def test_describe(self):
        assert FaultPlan().describe() == "no faults"
        text = FaultPlan.parse(["xbar_drop=0.1"], seed=3).describe()
        assert "seed=0x3" in text and "xbar_drop" in text

    def test_default_seed(self):
        assert FaultPlan().seed == DEFAULT_FAULT_SEED

    def test_build_attaches_controller(self, sim):
        plan = FaultPlan.parse(["xbar_drop=0.1"])
        ctl = sim.attach_faults(plan)
        assert sim.faults is ctl
        assert ctl.has_rsp_faults and not ctl.has_dram
