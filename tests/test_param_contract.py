"""One parameter contract for configuration fields and fault parameters.

An ``HMCConfig`` field and a built-in fault parameter each accept what
their declared domain and the type of their default allow, and refuse
everything else before any simulation context exists.
``golden_param_contract.json`` pins what the checks decided when the
hand-written validators were replaced by one resolver
(:func:`repro.registry.resolve_params`):

``config``
    The outcome of ``HMCConfig(field=value)`` for every validated field
    at each edge of its domain, one step past it, a float, a bool and a
    string.
``faults``
    The outcome of a one-spec plan parsed and then built against a
    context, for every built-in fault parameter at the same probes.
``fingerprints`` / ``cache_keys``
    ``FaultPlan.fingerprint()`` of the trafficgen faulty plan and of
    every ``--fault`` example in CI, the docs and the CLI help, and the
    mutex sweep cache key of each such plan.

An outcome is ``"accept"`` or the class name of what refused.  Every
row keeps its accept/refuse outcome, except a value whose type differs
from the default's (a float or a bool for an integer, a bool or a
string for a number, anything but a bool for a flag): those refuse now,
at parse time, with the owner's error class and a message naming the
parameter and the value.  The resolver returns values as given, without
coercing them, so it moves no fingerprint or cache key.  The cache keys
moved once since, when the ``memory`` and ``topology`` seams and
``nonlocal_hop_cycles`` left the configuration and its fingerprints.

``PYTHONPATH=src python tests/test_param_contract.py`` REWRITES the
golden; only after an intended change of what a parameter accepts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.errors import FaultError, HMCConfigError
from repro.faults.plan import DEFAULT_FAULT_SEED, FaultPlan, FaultSpec
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.parallel.tasks import cache_key
from repro.workloads.registry import WORKLOADS

GOLDEN = Path(__file__).with_name("golden_param_contract.json")

#: Each validated HMCConfig field's domain as the hand-written checks
#: stated it: ``(lo, hi)`` bounds (``hi`` None = unbounded), a frozenset
#: of accepted values, or None (type only).
CONFIG_DOMAINS: Dict[str, Any] = {
    "num_devs": (1, 8),
    "num_links": frozenset({4, 8}),
    "num_vaults": frozenset({16, 32}),
    "queue_depth": (2, None),
    "num_banks": frozenset({8, 16}),
    "num_drams": frozenset({16, 20}),
    "capacity": frozenset({2, 4, 8}),
    "xbar_depth": (2, None),
    "bsize": frozenset({32, 64, 128, 256}),
    "check_crc": None,
    "link_rsp_rate": (1, None),
    "vault_rsp_rate": (1, None),
    "addr_interleave": frozenset({"vault", "bank"}),
}

#: Each built-in fault parameter's default and domain as the injectors
#: checked them.
FAULT_DOMAINS: Dict[Tuple[str, str], Tuple[Any, Any]] = {
    **{
        (kind, "rate"): (0.0, (0.0, 1.0))
        for kind in (
            "cmc_crash", "dram_bitflip", "link_crc",
            "vault_stall", "xbar_drop", "xbar_dup",
        )
    },
    ("dram_bitflip", "uncorrectable"): (0.25, (0.0, 1.0)),
    ("vault_stall", "duration"): (8, (1, None)),
}

_CONFIG_DEFAULTS = HMCConfig()

#: The trafficgen faulty plan and every ``--fault`` example in CI, the
#: docs and the CLI help.
FAULT_EXAMPLES: Dict[str, Tuple[Tuple[str, ...], int]] = {
    "trafficgen-faulty": (
        (
            "vault_stall=0.05,duration=6",
            "dram_bitflip=0.1,uncorrectable=0",
            "xbar_drop=0.01",
            "xbar_dup=0.01",
            "link_crc=0.0005",
        ),
        DEFAULT_FAULT_SEED,
    ),
    "ci-chaos-sweep": (("xbar_drop=0.004", "vault_stall=0.002,duration=4"), 1),
    "ci-chaos-crash": (("cmc_crash=0.2",), 1),
    "docs-robustness-api": (
        ("dram_bitflip=3e-4", "vault_stall=1e-3,duration=4"), 0xBEEF,
    ),
    "docs-readme-sweep": (
        ("xbar_drop=0.004", "vault_stall=0.002,duration=4"), 0xBEEF,
    ),
    "cli-help": (("xbar_drop=0.004", "vault_stall=2e-3,duration=4"), DEFAULT_FAULT_SEED),
    "golden-kernel-mutex-fault": (("cmc_crash=0.2",), DEFAULT_FAULT_SEED),
}


def _probes(default: Any, domain: Any) -> List[Any]:
    """Each domain edge, one step past it, a float, a bool, a string."""
    if isinstance(domain, tuple):
        lo, hi = domain
        step = 0.125 if isinstance(default, float) else 1
        edges = [lo, lo - step] + ([] if hi is None else [hi, hi + step])
    elif isinstance(domain, frozenset) and isinstance(default, int):
        edges = sorted(domain) + [min(domain) - 1, max(domain) + 1]
    elif isinstance(domain, frozenset):
        edges = sorted(domain) + ["nope"]
    else:
        edges = [default, not default, 0, 1]
    if isinstance(default, float):
        odd = [int(default), 0.5]
    else:
        odd = [float(default) if isinstance(default, int) else 1.0, 1.5]
    probes = {_key("", v): v for v in edges + odd + [True, "abc"]}
    return list(probes.values())


def _key(name: str, value: Any) -> str:
    return f"{name}={value!r}"


CONFIG_ROWS = [
    (field, value)
    for field, domain in CONFIG_DOMAINS.items()
    for value in _probes(getattr(_CONFIG_DEFAULTS, field), domain)
]
FAULT_ROWS = [
    (kind, name, value)
    for (kind, name), (default, domain) in FAULT_DOMAINS.items()
    for value in _probes(default, domain)
]


def _type_ok(default: Any, value: Any) -> bool:
    """The type rule: a value's type is the default's (a bool is not an
    int, an int is a number)."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _config_outcome(field: str, value: Any) -> str:
    try:
        HMCConfig(**{field: value})
    except Exception as exc:  # noqa: BLE001 - the outcome is the class
        return type(exc).__name__
    return "accept"


def _fault_sim(kind: str) -> HMCSim:
    return HMCSim(HMCConfig(link_flow="tokens" if kind == "link_crc" else "none"))


def _fault_outcome(kind: str, name: str, value: Any) -> str:
    try:
        plan = FaultPlan(specs=(FaultSpec(kind, ((name, value),)),))
        plan.build(_fault_sim(kind))
    except Exception as exc:  # noqa: BLE001 - the outcome is the class
        return type(exc).__name__
    return "accept"


def _plan(example: str) -> FaultPlan:
    specs, seed = FAULT_EXAMPLES[example]
    return FaultPlan.parse(specs, seed=seed)


def _cache_keys(example: str) -> List[str]:
    mutex = WORKLOADS.get("mutex")
    return [
        cache_key(mutex.task_spec(config, 2, fault_plan=_plan(example)))
        for config in (HMCConfig.cfg_4link_4gb(), HMCConfig.cfg_8link_8gb())
    ]


def _capture() -> Dict[str, Any]:
    return {
        "config": {_key(f, v): _config_outcome(f, v) for f, v in CONFIG_ROWS},
        "faults": {
            f"{kind}.{_key(name, value)}": _fault_outcome(kind, name, value)
            for kind, name, value in FAULT_ROWS
        },
        "fingerprints": {e: _plan(e).fingerprint() for e in FAULT_EXAMPLES},
        "cache_keys": {e: _cache_keys(e) for e in FAULT_EXAMPLES},
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_probe(golden):
    assert sorted(golden["config"]) == sorted(_key(f, v) for f, v in CONFIG_ROWS)
    assert sorted(golden["faults"]) == sorted(
        f"{kind}.{_key(name, value)}" for kind, name, value in FAULT_ROWS
    )


@pytest.mark.parametrize(
    "field,value", CONFIG_ROWS, ids=[_key(f, v) for f, v in CONFIG_ROWS]
)
def test_config_field(golden, field, value):
    default = getattr(_CONFIG_DEFAULTS, field)
    refused = golden["config"][_key(field, value)] != "accept"
    if refused or not _type_ok(default, value):
        with pytest.raises(HMCConfigError) as exc:
            HMCConfig(**{field: value})
        assert f"{field!r}" in str(exc.value)
        assert f"got {value!r}" in str(exc.value)
    else:
        assert getattr(HMCConfig(**{field: value}), field) is value


@pytest.mark.parametrize(
    "kind,name,value",
    FAULT_ROWS,
    ids=[f"{k}.{_key(n, v)}" for k, n, v in FAULT_ROWS],
)
def test_fault_parameter(golden, kind, name, value):
    default, _ = FAULT_DOMAINS[kind, name]
    refused = golden["faults"][f"{kind}.{_key(name, value)}"] != "accept"
    if refused or not _type_ok(default, value):
        # Refused when the spec is made: no context, no worker, yet.
        with pytest.raises(FaultError) as exc:
            FaultSpec(kind, ((name, value),))
        assert f"{name!r}" in str(exc.value)
        assert f"got {value!r}" in str(exc.value)
    else:
        spec = FaultSpec(kind, ((name, value),))
        assert spec.param_dict()[name] is value
        FaultPlan(specs=(spec,)).build(_fault_sim(kind))


@pytest.mark.parametrize("example", sorted(FAULT_EXAMPLES))
def test_fingerprint_and_cache_keys_unchanged(golden, example):
    assert _plan(example).fingerprint() == golden["fingerprints"][example]
    assert _cache_keys(example) == golden["cache_keys"][example]


if __name__ == "__main__":  # pragma: no cover - golden capture
    GOLDEN.write_text(json.dumps(_capture(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
