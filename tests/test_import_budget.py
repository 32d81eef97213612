"""Import budget: a CLI invocation imports only what it runs.

Every ``python -m repro`` compiles and executes each module it imports
before doing any work, so the import set is most of a short
invocation's cost.  Each case runs in a fresh interpreter and reads its
``sys.modules`` afterwards: named modules must be absent, and the count
of ``repro`` modules stays under a ceiling set at the last measured
count.  A new top-level import in ``repro``, ``repro.cli`` or a
package ``__init__`` shows up here first; so does a module on the
cache-answered sweep path that imports the simulator it never runs.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.host.kernels

SRC = Path(repro.__file__).resolve().parent.parent

#: Runs one case in the child and prints its sorted ``sys.modules``.
_CHILD = """
import contextlib, io, sys
argv = sys.argv[1:]
if argv == ["<import>"]:
    import repro
else:
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv, out=io.StringIO())
        except SystemExit:
            pass
print("\\n".join(sorted(sys.modules)))
"""

CASES = {
    "import": ["<import>"],
    "help": ["--help"],
    "kernel": ["kernel", "mutex", "--threads", "2"],
    "sweep": ["sweep", "--threads", "2:4", "--no-cache"],
    "sweep-cached": ["sweep", "--threads", "2:4", "--jobs", "1"],
}

#: Cases whose measured interpreter runs after one that filled the
#: cache with the same invocation.
WARM = {"sweep-cached"}

#: Ceiling on ``repro`` modules per case, as measured (kernel: 81
#: before the lazy imports; kernel 56, sweep 64 and sweep-cached 61
#: before built-in component identities were declared and the
#: workload modules deferred the datapath to the run; kernel 52, sweep
#: 61 and sweep-cached 32 while each kernel's frontend had a module of
#: its own).
CEILING = {"import": 2, "help": 11, "kernel": 50, "sweep": 59, "sweep-cached": 30}


def _others(package, keep):
    return {
        f"{package.__name__}.{m.name}"
        for m in pkgutil.iter_modules(package.__path__)
        if m.name not in keep
    }


#: What neither a mutex kernel run nor a mutex sweep may import.
NOT_RUN = {
    "repro.workloads.graph",
    "repro.workloads.replay",
    "repro.workloads.tracefmt",
    "repro.analysis.traceview",
    "repro.analysis.export",
    "repro.oracle",
    "repro.serve",
    # Attached only by a fault plan or an invariant check.
    "repro.faults.watchdog",
    "repro.faults.invariants",
    "multiprocessing",
    "csv",
    *_others(repro.host.kernels, {"base", "mutex_kernel"}),
}

ABSENT = {
    "import": {"repro.hmc.sim"},
    "help": {"repro.hmc.sim"},
    "kernel": NOT_RUN,
    "sweep": NOT_RUN,
    # Answered from the cache: configs, cache keys and decoded results
    # need no datapath.
    "sweep-cached": NOT_RUN | {
        "repro.hmc.sim",
        "repro.hmc.device",
        "repro.hmc.vault",
        "repro.hmc.xbar",
        "repro.host.engine",
        "repro.host.thread",
    },
}


@pytest.fixture(scope="module")
def imported(tmp_path_factory):
    """case -> the module names its interpreter ended with."""
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(tmp_path_factory.mktemp("cache")),
    )
    found = {}
    for name, argv in CASES.items():
        for _ in range(2 if name in WARM else 1):
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        found[name] = set(proc.stdout.split())
    return found


@pytest.mark.parametrize("case", sorted(CASES))
def test_named_modules_are_not_imported(case, imported):
    assert sorted(ABSENT[case] & imported[case]) == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_repro_module_count_is_under_the_ceiling(case, imported):
    mods = sorted(
        m for m in imported[case] if m == "repro" or m.startswith("repro.")
    )
    assert len(mods) <= CEILING[case], "\n".join(mods)
