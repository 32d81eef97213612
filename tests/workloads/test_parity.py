"""Kernel stats golden: registry runs vs the retired legacy entrypoints.

``golden_kernel_stats.json`` was captured once, at the last commit that
still had the per-kernel ``run_*`` entrypoints under
``repro.host.kernels``, by calling those entrypoints directly: every
kernel, both shipped configurations, every ``cli_variants`` variant,
the modes no CLI variant reaches (``EXTRA``), the component selections
a kernel is also pinned under (``SELECTED``), and Algorithm 1 under a
fault plan.  The entrypoints are gone; the registry frontends are the
only statement of each kernel, and this suite pins them to the captured
stats field for field (cycle counts, request counts, verification
flags, and the ``module:qualname`` the stats are encoded under).

An intentional change to a kernel's simulated behaviour regenerates the
file from the registry (``python tests/workloads/test_parity.py``) and
bumps the frontend's ``version``; the diff is the review artifact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS

GOLDEN = Path(__file__).with_name("golden_kernel_stats.json")

CONFIGS = ("cfg_4link_4gb", "cfg_8link_8gb")

#: Reduced parameters per kernel (the defaults are CLI-sized; these
#: keep the suite tier-1 fast while still exercising contention).
PARAMS = {
    "mutex": {"threads": 4},
    "ticket": {"threads": 4},
    "stream": {"threads": 4, "blocks_per_thread": 2},
    "gups": {"threads": 4, "updates_per_thread": 8, "table_entries": 64},
    "bfs": {"threads": 4, "vertices": 32, "degree": 3},
    "hist": {"threads": 4, "samples_per_thread": 8, "bins": 8},
    "chase": {"length": 16},
    "barrier": {"threads": 4, "rounds": 2},
    "sssp": {"threads": 4, "vertices": 32, "degree": 3},
}

#: Modes the ``kernel`` subcommand's variants do not reach.
EXTRA = {
    "mutex": [{"oracle_sample": 4}],
    "stream": [{"windowed": True}],
    "chase": [{"scatter": True}],
}

#: Component selections a kernel also runs under, keyed
#: ``<kernel>/<config>+<seam>=<impl>/<params>``.
SELECTED = {"chase": [{"timing": "open_page"}]}

#: Whole parameter sets run beside the reduced ones.  STREAM past one
#: period of both inputs (97 x 31 = 3,007 elements) and a multiple of
#: neither, at both ends of the block sizes, with a ``q`` whose triad
#: rounds; GUPS over a non-power-of-two table from the LFSR's zero seed.
SIZED = {
    "stream": [
        {"threads": 5, "blocks_per_thread": 400, "block_bytes": 16, "q": 0.1},
        {"threads": 5, "blocks_per_thread": 100, "block_bytes": 256, "q": 0.1},
        {
            "threads": 5,
            "blocks_per_thread": 100,
            "block_bytes": 256,
            "q": 0.1,
            "windowed": True,
        },
    ],
    "gups": [
        {
            "threads": 4,
            "updates_per_thread": 64,
            "table_entries": 1000,
            "seed": 0,
            "atomic": atomic,
        }
        for atomic in (False, True)
    ],
}

#: The fault plan of the ``mutex`` faulty case (lossy kinds, so the
#: watchdog's retransmission path is part of the pinned stats).
FAULT_SPECS = ("xbar_drop=0.02", "xbar_dup=0.01")
FAULT_SEED = 7
FAULT_THREADS = 12


def cases(name):
    """``(key, params, fault_plan, components)`` for every pinned run
    of ``name``."""
    frontend = WORKLOADS.get(name)
    variants = [{}] + EXTRA.get(name, [])
    if frontend.cli_kernel:
        variants += frontend.cli_variants({"threads": PARAMS[name]["threads"]})
    seen = []
    for variant in variants:
        params = {**PARAMS[name], **variant}
        resolved = frontend.resolve_params(params)
        if resolved not in seen:  # a variant restating a default
            seen.append(resolved)
            yield json.dumps(params, sort_keys=True), params, None, {}
    for params in SIZED.get(name, []):
        yield json.dumps(params, sort_keys=True), params, None, {}
    for components in SELECTED.get(name, []):
        yield json.dumps(PARAMS[name], sort_keys=True), PARAMS[name], None, components
    if name == "mutex":
        plan = FaultPlan.parse(list(FAULT_SPECS), seed=FAULT_SEED)
        yield "faults", {"threads": FAULT_THREADS}, plan, {}


def encode_result(stats):
    """The golden's encoding: class path plus ``asdict`` fields."""
    cls = type(stats)
    return {"__dataclass__": f"{cls.__module__}:{cls.__qualname__}", "fields": asdict(stats)}


def _label(name, cfg_name, key, components):
    selected = "".join(f"+{seam}={impl}" for seam, impl in components.items())
    return f"{name}/{cfg_name}{selected}/{key}"


def _run_all(name, cfg_name):
    return {
        _label(name, cfg_name, key, components): encode_result(
            WORKLOADS.get(name).run(
                getattr(HMCConfig, cfg_name)(**components), params, fault_plan=plan
            )
        )
        for key, params, plan, components in cases(name)
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["cases"]


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("name", sorted(PARAMS))
def test_registry_run_matches_legacy_entrypoint(name, cfg_name, golden):
    got = _run_all(name, cfg_name)
    assert got, f"no pinned cases for {name}"
    for key, encoded in got.items():
        # Through JSON, as the golden went: tuples become lists there.
        assert json.loads(json.dumps(encoded)) == golden[key], key


def test_golden_has_no_unvisited_cases(golden):
    expected = {
        _label(name, cfg_name, key, components)
        for name in PARAMS
        for cfg_name in CONFIGS
        for key, _, _, components in cases(name)
    }
    assert set(golden) == expected


def _run_keeping_sim(name, params):
    """``WORKLOADS.get(name).run`` on 4Link-4GB up to the check:
    returns the frontend, the context, the resolved params and the
    engine result."""
    frontend = WORKLOADS.get(name)
    resolved = frontend.resolve_params(params)
    sim = frontend.new_sim(HMCConfig.cfg_4link_4gb(), resolved)
    frontend.prepare(sim, resolved)
    engine = frontend.new_engine(sim, resolved, None)
    for factory in frontend.build(sim, resolved):
        engine.add_thread(factory)
    result = engine.run()
    frontend.finish(sim, resolved)
    return frontend, sim, resolved, result


@pytest.mark.parametrize(
    "index, corrupt",
    [
        (3100, lambda old: old + 0.375),  # past one triad period
        (3999, lambda old: old - 1e9),  # the last element
        (7, lambda old: old * (1 + 2**-52)),  # one ulp-sized error
        (0, lambda old: -old),  # a[0] is 0.0: -0.0 differs by bits only
    ],
    ids=["past_period", "last", "tiny", "negative_zero"],
)
def test_stream_reports_the_exact_error_of_a_corrupted_element(index, corrupt):
    """The check's mismatch path: one ``a`` element overwritten after
    the run is reported as exactly its |difference|, and ``verify``
    fails unless that difference is zero."""
    params = SIZED["stream"][0]
    frontend, sim, resolved, result = _run_keeping_sim("stream", params)
    assert frontend.stats(sim, resolved, result).max_abs_error == 0.0
    a_base = frontend.footprint(sim.config, resolved)[0][0]
    addr = a_base + index * 8
    (old,) = struct.unpack("<d", sim.mem_read(addr, 8))
    new = corrupt(old)
    sim.mem_write(addr, struct.pack("<d", new))
    error = frontend.stats(sim, resolved, result).max_abs_error
    assert error == abs(new - old)
    assert frontend.verify(sim, resolved, result) is (error == 0.0)
    if index:
        assert error > 0.0


@pytest.mark.parametrize(
    "offset, matches", [(0, False), (8, True)], ids=["low", "high"]
)
def test_gups_check_compares_every_low_word(offset, matches):
    """The table check reads each entry's low word and nothing else: a
    flipped low word of the last entry fails it, a high word does not."""
    params = SIZED["gups"][1]
    frontend, sim, resolved, result = _run_keeping_sim("gups", params)
    assert frontend.verify(sim, resolved, result) is True
    table_base = frontend.footprint(sim.config, resolved)[0][0]
    addr = table_base + (params["table_entries"] - 1) * 16 + offset
    sim.mem_write(addr, bytes(b ^ 0xFF for b in sim.mem_read(addr, 8)))
    assert frontend.verify(sim, resolved, result) is matches
    assert frontend.stats(sim, resolved, result).verified is matches


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_format_stats_renders_one_line(name):
    cfg = HMCConfig.cfg_4link_4gb()
    frontend = WORKLOADS.get(name)
    stats = frontend.run(cfg, PARAMS[name])
    line = frontend.format_stats(stats)
    assert isinstance(line, str) and line and "\n" not in line
    assert cfg.describe() in line


def test_cli_variant_params_resolve_for_every_cli_kernel():
    # The kernel subcommand trusts cli_variants to produce valid
    # parameter dicts; reject-unknown-keys must accept them all.
    for name in WORKLOADS.keys(kind="kernel"):
        frontend = WORKLOADS.get(name)
        if not frontend.cli_kernel:
            continue
        for variant in frontend.cli_variants({"threads": 4}):
            frontend.resolve_params(variant)


if __name__ == "__main__":  # regenerate the golden from the registry
    doc = {
        "provenance": (
            "regenerated from the registry frontends by "
            "tests/workloads/test_parity.py (first captured from the "
            "legacy run_* entrypoints at 6b3234b)"
        ),
        "cases": {
            key: encoded
            for name in sorted(PARAMS)
            for cfg_name in CONFIGS
            for key, encoded in _run_all(name, cfg_name).items()
        },
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
