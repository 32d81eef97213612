"""Composition root: build pipeline stages from ``HMCConfig`` selections.

This module is the *only* place where the simulator core meets concrete
component implementations.  The ``build_*`` helpers below are how
:class:`HMCSim` and :class:`Device` construct their pipeline stages —
always through the per-seam registries in
:data:`repro.hmc.components.COMPONENTS`, never by naming a class.  Each
registry's catalog is this module, then its seam's home module.
``scripts/lint_no_function_imports.py`` enforces that
:mod:`repro.hmc.device` and :mod:`repro.hmc.sim` import no concrete
seam implementation directly, so swapping an implementation is always a
config change, never a core edit.

Third-party components do not need this module: registering under a new
key with :func:`repro.hmc.components.register_component` makes the key
immediately valid in :class:`HMCConfig` (validation consults the live
registry).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ComponentError
from repro.hmc.components import create, register_component

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hmc.components import (
        CrossbarModel,
        MemoryModel,
        TopologyRouter,
    )
    from repro.hmc.config import HMCConfig
    from repro.hmc.sim import HMCSim

__all__ = [
    "build",
    "build_xbar",
    "build_topology",
    "build_memory",
]


@register_component("link_flow", "none")
def _no_flow(config: "HMCConfig") -> None:
    """The baseline datapath (seam key ``none``): no flow-control model
    at all, so sends are never token-limited and no retry state exists —
    the paper's "No Simulation Perturbation" default."""
    return None


@register_component("timing", "none")
@register_component("power", "none")
def _no_model(config: "HMCConfig") -> None:
    """No timing or energy model (seam key ``none``): zero-latency banks."""
    return None


@register_component("xbar", "vector")
def _vector_xbar(config: "HMCConfig", dev: int):
    """The numpy flight-table engine (seam key ``vector``).

    A lazy factory rather than a self-registering class, for two
    reasons: numpy is an *optional* dependency (the ``[vector]``
    extra), so the default composition must import clean without it —
    the ``ImportError`` surfaces here as a one-line
    :class:`ComponentError` only when the key is actually selected —
    and :mod:`repro.hmc.vector` may be named nowhere but this module
    (the vector-containment lint pins that).
    """
    try:
        from repro.hmc.vector.engine import VectorXBar
    except ImportError:
        raise ComponentError(
            "xbar='vector' requires numpy, which is not installed — "
            "install the optional extra: pip install 'repro[vector]'"
        ) from None
    return VectorXBar(config, dev)


# -- builders, one per factory signature -------------------------------------


def build_xbar(config: "HMCConfig", dev: int) -> "CrossbarModel":
    """The crossbar selected by ``config.xbar`` for device ``dev``."""
    return create("xbar", config.xbar, config, dev)


def build(seam: str, config: "HMCConfig") -> Any:
    """A fresh ``config`` selection of a seam built from the config alone:
    ``vault_scheduler`` (one per vault), ``link_flow``, ``timing``, ``power``."""
    return create(seam, getattr(config, seam), config)


def build_topology(sim: "HMCSim") -> "TopologyRouter":
    """The multi-cube router selected by ``sim.config.topology``."""
    return create("topology", sim.config.topology, sim)


def build_memory(config: "HMCConfig") -> "MemoryModel":
    """The backing store selected by ``config.memory``."""
    return create("memory", config.memory, config.total_bytes)
