"""Simulation checkpoint and restore.

A checkpoint is one JSON file: a version, the configuration
fingerprint, and the state of each part walked from the context.  Both
calls take an idle, collected context only — nothing queued in a
device, on the inter-cube wire or awaiting a link replay, no response
waiting in a link's retire buffer, no tag outstanding — so the state is
counters, bank, register and scheduler state and memory pages, and no
packet is ever serialized.  The parts own their state — each
implements ``snapshot_state()`` / ``restore_state(doc)``
(:class:`repro.hmc.components.Stateful`) — so this module restates no
other module's fields.  Only the current version restores; an older
file is refused by name.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import HMCSimError
from repro.fsutil import atomic_write_text
from repro.hmc.sim import HMCSim

__all__ = ["save_checkpoint", "restore_checkpoint", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 6

#: Versions restore_checkpoint accepts.
_SUPPORTED_VERSIONS = (6,)

#: The configuration fields a restore must agree on (beside the
#: component selection and the attached models).
_GEOMETRY = (
    "num_devs", "num_links", "num_vaults", "num_banks", "capacity",
    "queue_depth", "xbar_depth", "bsize", "addr_interleave",
)

#: Attachments a checkpoint taken without them may restore into: the
#: target's fresh fault controller stays fresh.
_ATTACHABLE = ("fault_plan", "fault_seed")


def _show(key: str, value: object) -> str:
    if value is None:
        return f"no {key.replace('_', ' ')}"
    return hex(value) if key == "fault_seed" else repr(value)


def _fingerprint_diff(
    want: Dict[str, object], got: Dict[str, object]
) -> str:
    """Name exactly the fingerprint fields that differ, and what each
    side holds: serve surfaces the rejection verbatim to clients."""
    return "; ".join(
        f"{key}: checkpoint has {_show(key, got.get(key))}, "
        f"target has {_show(key, want.get(key))}"
        for key in sorted(set(want) | set(got))
        if want.get(key) != got.get(key)
        and not (key in _ATTACHABLE and got.get(key) is None)
    )


def _fingerprint(sim: HMCSim) -> Dict[str, object]:
    """Everything a restore must agree on: geometry, the component
    selection, every attached model's parameters and the fault plan."""
    cfg, faults = sim.config, sim.faults
    return {
        **{name: getattr(cfg, name) for name in _GEOMETRY},
        **cfg.component_selection(),
        "timing": None if sim.timing is None else asdict(sim.timing),
        "power": None if sim.power is None else asdict(sim.power),
        "flow": None if sim.flow is None else sim.flow.params(),
        "fault_plan": None if faults is None else faults.plan.describe(),
        "fault_seed": None if faults is None else faults.plan.seed,
    }


def _check_collected(sim: HMCSim, action: str) -> None:
    """Refuse a context that is not idle and collected, naming what
    it still holds."""
    if sim.topology.in_transit:
        held = "packets on the inter-cube wire"
    elif not sim.idle():
        held = "packets in flight inside a device or link replays pending"
    elif any(link.retired for device in sim.devices for link in device.links):
        held = "uncollected responses in a link's retire buffer"
    elif sim.stats()["outstanding"]:
        held = "outstanding tags"
    else:
        return
    raise HMCSimError(
        f"cannot {action} a context with {held} — drain() and collect "
        "every response first"
    )


def save_checkpoint(
    sim: HMCSim,
    path: Union[str, Path],
    *,
    meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Write a checkpoint of an idle, collected context (atomic replace).

    ``meta`` is an opaque caller label stored in the same file and
    handed back by :func:`restore_checkpoint`, so a snapshot and what
    the caller knows about it land in one replace.

    Raises:
        HMCSimError: if the context has packets in flight, uncollected
            responses or outstanding tags (drain and collect first).
    """
    _check_collected(sim, "checkpoint")
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": _fingerprint(sim),
        "sim": sim.snapshot_state(),
    }
    if meta is not None:
        doc["meta"] = meta
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(p, json.dumps(doc))
    return p


def restore_checkpoint(
    sim: HMCSim, path: Union[str, Path]
) -> Optional[Dict[str, object]]:
    """Load a checkpoint into a freshly built, idle and collected context.

    Returns the ``meta`` label the checkpoint was saved with (``None``
    when it carries none).  The target must match the fingerprint; CMC
    plugins recorded with an importable source are re-loaded, inline
    registrations must be re-registered first.

    Raises:
        HMCSimError: an unreadable or malformed file (naming it and the
            missing key), a version or fingerprint mismatch, or a
            target with packets in flight, uncollected responses or
            outstanding tags.
    """
    _check_collected(sim, "restore into")
    name = Path(path).name
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise HMCSimError(f"checkpoint {name} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise HMCSimError(f"checkpoint {name} holds a JSON {type(doc).__name__}, not an object")
    if doc.get("version") not in _SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in _SUPPORTED_VERSIONS)
        raise HMCSimError(
            f"checkpoint {name} has version {doc.get('version')!r}, "
            f"which this build does not support (supported versions: "
            f"{supported}; current save version: {CHECKPOINT_VERSION})"
        )
    try:
        diff = _fingerprint_diff(_fingerprint(sim), doc["config"])
        if diff:
            raise HMCSimError(
                "checkpoint configuration does not match the target context: "
                + diff
            )
        sim.restore_state(doc["sim"])
    except HMCSimError:
        raise
    except KeyError as exc:
        raise HMCSimError(f"checkpoint {name} is malformed: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise HMCSimError(f"checkpoint {name} is malformed: {exc!r}") from None
    return doc.get("meta")
