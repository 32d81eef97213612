"""Fixed-seed differential fuzz smoke — the CI face of ``fuzz``.

Small fixed-seed traces per profile, covering both shipped
configurations and both fault modes (clean and FaultPlan-driven).  A
failure here means the engine diverged from the functional oracle on a
pinned seed; reproduce locally with::

    PYTHONPATH=src python -m repro.cli fuzz --seed <seed> \
        --profile <profile> --count 96 --shrink

and see docs/CORRECTNESS.md for turning it into a regression fixture.
"""

import hashlib

import pytest

from repro.oracle import PROFILES, generate_trace, run_trace

#: One pinned seed per profile (fault-free and faulty alike).
_SMOKE = [(profile, seed) for profile in sorted(PROFILES) for seed in (0, 1)]


@pytest.mark.parametrize("profile,seed", _SMOKE)
def test_fuzz_smoke_4link(profile, seed):
    trace = generate_trace(seed, profile=profile, count=96)
    result = run_trace(trace)
    assert result.ok, "\n".join(m.describe() for m in result.mismatches)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_fuzz_smoke_8link(profile):
    trace = generate_trace(2, profile=profile, count=96, config_name="8link_8gb")
    result = run_trace(trace)
    assert result.ok, "\n".join(m.describe() for m in result.mismatches)


#: sha256 over ``repr(generate_trace(seed, profile=p, count=128,
#: config_name=c))`` for seeds 0-7 in order, per (profile, config).  A
#: change to how profiles pick or place CMC ops (e.g. how the op list is
#: discovered) must leave every seeded trace byte-identical.
_TRACE_DIGESTS = {
    ("cmc", "4link_4gb"): (
        "1794e79d2737689f5c05ddd3e1da7ecd4dd1ac2be26498666cca04491cbfc5f5"
    ),
    ("cmc", "8link_8gb"): (
        "a05801500b099b374c30ee516fa27d6715392eb3f5c0a7ae5898dd54aed6b96e"
    ),
    ("deep_queue", "4link_4gb"): (
        "109395f5a9757db02d0648fef52727195f15734d3d126e46a089d02cb78a5f8b"
    ),
    ("deep_queue", "8link_8gb"): (
        "e0d3cf2eca7a1aca8f448d381fdf6355e1154479422a41260e8321462425e410"
    ),
    ("faulty", "4link_4gb"): (
        "9218d567a76021c6c2e1577ca4901f1bd63f1d90147076f04bdbddda50c2bea5"
    ),
    ("faulty", "8link_8gb"): (
        "03c8f930dbdd4c7cf9f1b97be0f8c89c297d7de01eaf9a6b6671a23c073a9eda"
    ),
    ("mixed", "4link_4gb"): (
        "674e793e1e5f2504522cd97a84618e166b11d28766b7bbc6c6cb8261dc5e8a64"
    ),
    ("mixed", "8link_8gb"): (
        "70d86bc1f1ec2105e897534fe9e8e6ae026b126ebdb1746b773aeacf4bc5986c"
    ),
    ("spec", "4link_4gb"): (
        "14f6e5e5294a34b98c6a90b69d9bbb6aef1bad44e681b49a35d215bff98afc99"
    ),
    ("spec", "8link_8gb"): (
        "edec4057a199042bfd55a3748fed2be9f460459b9e614fa8a5954bbea8f93d7c"
    ),
}


@pytest.mark.parametrize("profile,config_name", sorted(_TRACE_DIGESTS))
def test_seeded_traces_are_pinned(profile, config_name):
    h = hashlib.sha256()
    for seed in range(8):
        trace = generate_trace(
            seed, profile=profile, count=128, config_name=config_name
        )
        h.update(repr(trace).encode())
    assert h.hexdigest() == _TRACE_DIGESTS[profile, config_name]


def test_every_profile_is_pinned():
    assert {p for p, _ in _TRACE_DIGESTS} == set(PROFILES)


def test_traces_are_deterministic():
    a = generate_trace(7, profile="mixed", count=64)
    b = generate_trace(7, profile="mixed", count=64)
    assert a == b


def test_faulty_profile_actually_faults():
    # The faulty profile must attach a FaultPlan, and over a handful of
    # seeds at least one run must record injected fault events —
    # otherwise the profile silently degenerated into the clean one.
    fired = 0
    for seed in range(4):
        trace = generate_trace(seed, profile="faulty", count=96)
        assert trace.fault_specs
        result = run_trace(trace)
        assert result.ok, "\n".join(m.describe() for m in result.mismatches)
        fired += sum(result.fault_counts.values())
    assert fired > 0


def test_clean_profile_reports_no_fault_counts():
    result = run_trace(generate_trace(0, profile="spec", count=32))
    assert result.ok and result.fault_counts == {}


def test_faulty_profile_survives_lossy_faults():
    # The faulty profile carries response-destroying kinds (xbar_drop,
    # xbar_dup, link_crc): the differ's watchdog must turn losses into
    # retransmits and duplicate deliveries into suppressions — not
    # mismatches, not deadlocks.
    trace = generate_trace(0, profile="faulty", count=64)
    assert any(s.startswith("xbar_drop") for s in trace.fault_specs)
    assert any(s.startswith("xbar_dup") for s in trace.fault_specs)
    assert any(s.startswith("link_crc") for s in trace.fault_specs)
    retransmits = dups = 0
    for seed in range(8):
        result = run_trace(
            generate_trace(seed, profile="faulty", count=64)
        )
        assert result.ok, "\n".join(m.describe() for m in result.mismatches)
        assert result.skipped is None
        retransmits += result.retransmits
        dups += result.duplicates_suppressed
    assert retransmits > 0
    assert dups > 0


@pytest.mark.parametrize("xbar", ["queued", "vector"])
def test_faulty_profile_survives_on_both_engines(xbar):
    for seed in (0, 3):
        result = run_trace(
            generate_trace(seed, profile="faulty", count=64),
            config_overrides={"xbar": xbar},
        )
        assert result.ok, "\n".join(m.describe() for m in result.mismatches)
