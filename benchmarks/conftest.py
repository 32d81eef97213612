"""Shared fixtures for the paper-regeneration scripts.

Every ``bench_*.py`` regenerates one table, figure or extension study
from deterministic simulated results and times nothing (wall-clock
numbers come from ``perfbench/`` alone).  The three figures and
Table VI are views of one sweep (Algorithm 1, threads 2..100, both
configurations), computed once per session and shared.
``REPRO_SWEEP_STEP=<k>`` thins the thread axis (every k-th count,
always including 2, 99, and 100) for quick runs; such a run prints its
artifacts, and only the paper's full axis (the default) writes the
tracked ``benchmarks/out/<name>.txt``.  ``REPRO_JOBS=<n>`` fans the
sweep's independent points across n worker processes (0 = all cores) —
bit-identical to the serial run (``docs/PERFORMANCE.md``, "Parallel
execution").
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List

import pytest

from repro.analysis.sweep import PAPER_THREAD_RANGE, MutexSweep, run_mutex_sweep
from repro.hmc.config import HMCConfig

OUT_DIR = Path(__file__).parent / "out"


def sweep_step() -> int:
    raw = os.environ.get("REPRO_SWEEP_STEP", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise pytest.UsageError(f"REPRO_SWEEP_STEP must be a positive integer, got {raw!r}")
    return int(raw)


def pytest_configure(config) -> None:
    sweep_step()  # a bad value ends the run in one line, before any sweep


def thread_axis() -> List[int]:
    axis = list(PAPER_THREAD_RANGE)  # holds 2, 99 and 100: step 1 is the axis itself
    return sorted(set(axis[:: sweep_step()]) | {2, 99, 100})


def sweep_jobs() -> int:
    """Worker processes for the shared sweep (``REPRO_JOBS``, default 1)."""
    return int(os.environ.get("REPRO_JOBS", "1"))


@pytest.fixture(scope="session")
def sweeps() -> List[MutexSweep]:
    """[4Link-4GB sweep, 8Link-8GB sweep] over the configured axis."""
    axis = thread_axis()
    jobs = sweep_jobs()
    return [
        run_mutex_sweep(HMCConfig.cfg_4link_4gb(), axis, jobs=jobs),
        run_mutex_sweep(HMCConfig.cfg_8link_8gb(), axis, jobs=jobs),
    ]


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def emit(artifact_dir: Path, name: str, text: str) -> None:
    """Print a regenerated artifact; persist it when the axis is the paper's."""
    print(f"\n=== {name} ===\n{text}\n")
    if sweep_step() == 1:
        (artifact_dir / f"{name}.txt").write_text(text + "\n")
