"""Simulation checkpoint and restore.

A checkpoint is one JSON file: a version, the configuration
fingerprint, and the state of each part walked from the context (plus
the host watchdog and a differential oracle when passed), taken while
every device is quiesced.  The parts own their state — each implements
``snapshot_state()`` / ``restore_state(doc)``
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

CHECKPOINT_VERSION = 5

#: Versions restore_checkpoint accepts.
_SUPPORTED_VERSIONS = (5,)

#: The configuration fields a restore must agree on (beside the
#: component selection and the attached models).
_GEOMETRY = (
    "num_devs", "num_links", "num_vaults", "num_banks", "capacity",
    "queue_depth", "xbar_depth", "bsize", "addr_interleave",
)

#: Attachments a checkpoint taken without them may restore into: the
#: target's fresh fault controller or watchdog stays fresh.
_ATTACHABLE = ("fault_plan", "fault_seed", "watchdog")


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


def _fingerprint(sim: HMCSim, watchdog: Optional[object]) -> Dict[str, object]:
    """Everything a restore must agree on: geometry, the component
    selection, every attached model's parameters, the fault plan and
    the watchdog's parameters."""
    cfg, faults = sim.config, sim.faults
    fp: Dict[str, object] = {
        **{name: getattr(cfg, name) for name in _GEOMETRY},
        **cfg.component_selection(),
        "timing": None if sim.timing is None else asdict(sim.timing),
        "power": None if sim.power is None else asdict(sim.power),
        "flow": None if sim.flow is None else sim.flow.params(),
        "fault_plan": None if faults is None else faults.plan.describe(),
        "fault_seed": None if faults is None else faults.plan.seed,
        "watchdog": None,
    }
    if watchdog is not None:
        fp["watchdog"] = {
            k: getattr(watchdog, k) for k in ("timeout", "max_retries", "backoff")
        }
    return fp


def _check_quiesced(sim: HMCSim, action: str) -> None:
    """Devices (and the link layer) must hold nothing; packets on the
    inter-cube wire are fine — they serialize."""
    flow = sim.flow
    if any(device.busy() for device in sim.devices) or (
        flow is not None and flow.has_pending_replays()
    ):
        raise HMCSimError(
            f"cannot {action} with packets in flight inside a device or "
            "link replays pending — call drain() first"
        )


def save_checkpoint(
    sim: HMCSim,
    path: Union[str, Path],
    *,
    watchdog: Optional[object] = None,
    oracle: Optional[object] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Write a checkpoint of a device-quiesced context (atomic replace).

    Pass the host's :class:`~repro.faults.watchdog.TagWatchdog` via
    ``watchdog=`` and a differential reference model via ``oracle=``
    (anything with ``snapshot_state()``) to capture them alongside.
    ``meta`` is an opaque caller label stored in the same file and
    handed back by :func:`restore_checkpoint`, so a snapshot and what
    the caller knows about it land in one replace.

    Raises:
        HMCSimError: if any device holds packets in flight (drain first).
    """
    _check_quiesced(sim, "checkpoint")
    doc = {"version": CHECKPOINT_VERSION, "config": _fingerprint(sim, watchdog)}
    for key, part in (("sim", sim), ("watchdog", watchdog), ("oracle", oracle)):
        doc[key] = None if part is None else part.snapshot_state()
    if meta is not None:
        doc["meta"] = meta
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(p, json.dumps(doc))
    return p


def restore_checkpoint(
    sim: HMCSim,
    path: Union[str, Path],
    *,
    watchdog: Optional[object] = None,
    oracle: Optional[object] = None,
) -> Optional[Dict[str, object]]:
    """Load a checkpoint into a freshly built context.

    Returns the ``meta`` label the checkpoint was saved with (``None``
    when it carries none).  The target must match the fingerprint; CMC
    plugins recorded with an importable source are re-loaded, inline
    registrations must be re-registered first.  Pass the target
    watchdog and oracle when the checkpoint holds their state.

    Raises:
        HMCSimError: an unreadable or malformed file (naming it and the
            missing key), a version or fingerprint mismatch, or a
            non-idle target context.
    """
    _check_quiesced(sim, "restore")
    if sim.topology.in_transit:
        raise HMCSimError(
            "cannot restore into a context with packets in flight between cubes"
        )
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
        diff = _fingerprint_diff(_fingerprint(sim, watchdog), doc["config"])
        if diff:
            raise HMCSimError(
                "checkpoint configuration does not match the target context: "
                + diff
            )
        for key, part in (("sim", sim), ("watchdog", watchdog), ("oracle", oracle)):
            if doc[key] is not None:
                if part is None:
                    raise HMCSimError(
                        f"checkpoint carries {key} state — pass the target "
                        f"{key} via {key}="
                    )
                part.restore_state(doc[key])
    except HMCSimError:
        raise
    except KeyError as exc:
        raise HMCSimError(f"checkpoint {name} is malformed: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise HMCSimError(f"checkpoint {name} is malformed: {exc!r}") from None
    return doc.get("meta")
