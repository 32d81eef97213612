"""Regression gate for ``scripts/lint_no_function_imports.py``.

Runs the function-level-import check and every containment rule
in-process so they fail tier-1 CI, not just the standalone script, and
plants a violation of each to prove it fires.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "lint_no_function_imports.py"


def _load_lint():
    spec = importlib.util.spec_from_file_location("lint_no_function_imports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def test_no_function_level_imports_in_hmc_package() -> None:
    lint = _load_lint()
    diags = lint.run()
    assert diags == [], "\n".join(diags)


def test_lint_flags_a_planted_violation(tmp_path: Path) -> None:
    """The lint actually detects what it claims to (no false-clean)."""
    lint = _load_lint()
    bad = tmp_path / "hot.py"
    bad.write_text(
        "def process(pkt):\n"
        "    import json\n"
        "    return json\n"
        "\n"
        "def __getattr__(name):\n"
        "    from os import path  # PEP 562 lazy import: allowed\n"
        "    return path\n"
    )
    diags = lint.run(tmp_path)
    assert len(diags) == 1
    assert "hot.py" in diags[0] and "process" in diags[0]


def test_core_modules_build_seams_through_registry_only() -> None:
    lint = _load_lint()
    diags = lint.contain("seam")
    assert diags == [], "\n".join(diags)


def test_seam_check_flags_a_planted_violation(tmp_path: Path) -> None:
    """A core module importing a concrete seam class is caught."""
    lint = _load_lint()
    bad = tmp_path / "device.py"
    bad.write_text(
        "from repro.hmc.xbar import Flight, XBar\n"  # Flight is fine, XBar is not
        "from repro.hmc.composition import build_xbar\n"
    )
    diags = lint.contain("seam", scope=(bad,))
    assert len(diags) == 1
    assert "XBar" in diags[0] and "composition" in diags[0]


def test_oracle_imports_no_cycle_engine_internals() -> None:
    lint = _load_lint()
    diags = lint.contain("oracle")
    assert diags == [], "\n".join(diags)


def test_oracle_purity_flags_planted_violations(tmp_path: Path) -> None:
    """All three import spellings of an engine internal are caught."""
    lint = _load_lint()
    bad = tmp_path / "model.py"
    bad.write_text(
        "import repro.hmc.vault\n"
        "from repro.hmc.xbar import XBar\n"
        "from repro.hmc import link, commands\n"
        "from repro.hmc.sim import HMCSim  # public facade: allowed\n"
        "from repro.hmc.amo import reference_amo  # shared semantics: allowed\n"
    )
    diags = lint.contain("oracle", scope=(tmp_path,))
    assert len(diags) == 3, "\n".join(diags)
    assert any("repro.hmc.vault" in d for d in diags)
    assert any("repro.hmc.xbar" in d for d in diags)
    assert any("repro.hmc.link" in d for d in diags)


def test_vector_engine_is_contained() -> None:
    lint = _load_lint()
    diags = lint.contain("vector")
    assert diags == [], "\n".join(diags)


def test_vector_containment_flags_planted_violations(tmp_path: Path) -> None:
    """All three import spellings of the vector package are caught."""
    lint = _load_lint()
    bad = tmp_path / "consumer.py"
    bad.write_text(
        "import repro.hmc.vector\n"
        "from repro.hmc.vector.engine import VectorXBar\n"
        "from repro.hmc import vector, commands\n"
        "from repro.hmc.xbar import XBar  # not the vector package: allowed\n"
    )
    diags = lint.contain("vector", scope=(tmp_path,))
    assert len(diags) == 3, "\n".join(diags)
    assert all("repro.hmc.vector" in d for d in diags)


def test_vector_containment_exempts_composition(tmp_path: Path) -> None:
    """The allow-list actually exempts the sanctioned paths."""
    lint = _load_lint()
    allowed = tmp_path / "composition.py"
    allowed.write_text("from repro.hmc.vector.engine import VectorXBar\n")
    diags = lint.contain("vector", scope=(tmp_path,), allowed=(allowed,))
    assert diags == []


def test_workload_classes_are_contained() -> None:
    lint = _load_lint()
    diags = lint.contain("workload")
    assert diags == [], "\n".join(diags)


def test_workload_containment_flags_a_planted_violation(tmp_path: Path) -> None:
    """A module naming a concrete frontend class is caught."""
    lint = _load_lint()
    bad = tmp_path / "rogue.py"
    bad.write_text(
        "from repro.workloads.adapters import MutexWorkload\n"
        "from repro.workloads.graph import CounterGraphWorkload, TaskGraph\n"
        "from repro.workloads.registry import WORKLOADS  # the seam: allowed\n"
    )
    diags = lint.contain("workload", scope=(tmp_path,))
    assert len(diags) == 2, "\n".join(diags)
    assert any("MutexWorkload" in d for d in diags)
    assert any("CounterGraphWorkload" in d for d in diags)
    assert not any("TaskGraph" in d for d in diags)


def test_workload_containment_exempts_the_catalog(tmp_path: Path) -> None:
    """The allow-list actually exempts the composition root."""
    lint = _load_lint()
    allowed = tmp_path / "catalog.py"
    allowed.write_text("from repro.workloads.adapters import MutexWorkload\n")
    diags = lint.contain("workload", scope=(tmp_path,), allowed=(allowed,))
    assert diags == []


def test_lint_script_runs_standalone() -> None:
    import subprocess

    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
