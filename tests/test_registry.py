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


@pytest.fixture
def two_module_catalog(case, tmp_path, monkeypatch):
    """A fresh registry whose catalog is two modules: the first
    registers ``KEY``, the second ``KEY + "2"``."""
    live, a, _ = case
    modules = ("_first_catalog", "_second_catalog")
    registry = Registry(live.noun, live.error, catalog=modules)
    monkeypatch.setattr(sys.modules[__name__], "TWO", (registry, a), raising=False)
    monkeypatch.syspath_prepend(str(tmp_path))
    for module, key in zip(modules, (KEY, KEY + "2")):
        monkeypatch.delitem(sys.modules, module, raising=False)
        (tmp_path / f"{module}.py").write_text(
            f"import time\nfrom {__name__} import TWO\n"
            f"time.sleep(0.02)\nTWO[0].register({key!r}, TWO[1])\n"
        )
    return registry


def test_lookup_loads_the_catalog_only_up_to_the_key(two_module_catalog):
    registry = two_module_catalog
    registry.get(KEY)
    assert registry.has(KEY)
    registry.fingerprint(KEY)
    assert "_first_catalog" in sys.modules
    assert "_second_catalog" not in sys.modules


@pytest.mark.parametrize("lookup", ["keys", "miss"])
def test_listing_or_missing_loads_the_whole_catalog(two_module_catalog, lookup):
    registry = two_module_catalog
    if lookup == "keys":
        assert registry.keys() == (KEY, KEY + "2")
    else:
        assert not registry.has("nope")
    assert {"_first_catalog", "_second_catalog"} <= set(sys.modules)


def test_concurrent_lookups_of_both_modules_keys(two_module_catalog):
    # More threads than cores, half after each module's key, racing the
    # partial load with a short switch interval: each sees its own key.
    registry = two_module_catalog
    seen = []
    threads = [
        threading.Thread(target=lambda k=key: seen.append(registry.has(k)))
        for key in (KEY, KEY + "2") * 4
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [True] * len(threads)
    assert registry.keys() == (KEY, KEY + "2")
