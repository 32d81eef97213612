"""The one registry contract, held by every name -> thing registry.

The component seams, the fault kinds and the workloads are all
:class:`repro.registry.Registry` instances; each case below runs against
the live registry of one domain (a temporary key, removed afterwards):
register, duplicate refusal and ``replace``, the unknown-key message,
a concurrent first lookup during the catalog load, and the fingerprint
following a replace.  The domains' own rules (seam interfaces, a fault
kind's primary parameter, fresh workload instances) are tested beside
each domain.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.faults.registry import FAULTS, FaultKind
from repro.hmc.components import COMPONENTS
from repro.registry import Registry
from repro.workloads.base import WorkloadFrontend
from repro.workloads.registry import WORKLOADS

KEY = "_contract_tmp"


def _memory_a(capacity):
    return None


def _memory_b(capacity):
    return None


class _InjectorA:
    pass


class _InjectorB:
    pass


class _WorkloadA(WorkloadFrontend):
    name = KEY
    description = "contract test workload"

    def build(self, sim, params):
        return []


class _WorkloadB(_WorkloadA):
    pass


def _fault(factory):
    return FaultKind(KEY, factory, primary="rate", defaults=(("rate", 0.0),), doc="d")


#: domain -> (live registry, two distinct entries for one key).
CASES = {
    "components": (COMPONENTS["memory"], _memory_a, _memory_b),
    "faults": (FAULTS, _fault(_InjectorA), _fault(_InjectorB)),
    "workloads": (WORKLOADS, _WorkloadA, _WorkloadB),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    registry, a, b = CASES[request.param]
    yield registry, a, b
    registry._entries.pop(KEY, None)


def test_register_makes_the_key_resolvable(case):
    registry, a, _ = case
    assert not registry.has(KEY)
    assert registry.register(KEY, a) is a
    assert registry.has(KEY)
    assert KEY in registry.keys()
    assert KEY in [row[0] for row in registry.describe()]
    got = registry.get(KEY)
    assert got is a or isinstance(got, a)  # workloads: a fresh instance
    assert registry.classes()[KEY] is getattr(a, "factory", a)


def test_duplicate_refused_unless_replace(case):
    registry, a, b = case
    registry.register(KEY, a)
    with pytest.raises(registry.error, match="already registered"):
        registry.register(KEY, b)
    registry.register(KEY, b, replace=True)
    assert registry.classes()[KEY] is getattr(b, "factory", b)


def test_unknown_key_lists_the_known_keys(case):
    registry, _, _ = case
    with pytest.raises(registry.error, match="known keys") as exc:
        registry.get("nope")
    assert all(key in str(exc.value) for key in registry.keys())
    assert not registry.has("nope")


def test_fingerprint_changes_on_replace(case):
    registry, a, b = case
    registry.register(KEY, a)
    before = registry.fingerprint(KEY)
    registry.register(KEY, b, replace=True)
    assert registry.fingerprint(KEY) != before
    registry.register(KEY, a, replace=True)
    assert registry.fingerprint(KEY) == before


def test_concurrent_first_lookup_sees_the_whole_catalog(case, tmp_path, monkeypatch):
    # The loaded flag used to be set before the catalog import, so a
    # second thread looking a name up meanwhile found an empty registry.
    live, a, _ = case
    registry = Registry(live.noun, live.error, catalog=("_slow_catalog",))
    monkeypatch.setattr(sys.modules[__name__], "SLOW", (registry, a), raising=False)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "_slow_catalog", raising=False)
    (tmp_path / "_slow_catalog.py").write_text(
        "import time\n"
        f"from {__name__} import KEY, SLOW\n"
        "time.sleep(0.2)\n"
        "SLOW[0].register(KEY, SLOW[1])\n"
    )
    seen = []
    threads = [
        threading.Thread(target=lambda: seen.append(registry.has(KEY)))
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
        time.sleep(0.05)
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [True, True]
