"""String-keyed registry of fault-injector kinds.

:data:`FAULTS` is a :class:`repro.registry.Registry` of *fault kinds* —
named, parameterized, deterministic perturbations of the simulated
datapath.  Built-in kinds self-register from
:mod:`repro.faults.injectors`, the registry's catalog, on first lookup;
third-party kinds call :func:`register_fault` with their own key and
become immediately usable in :class:`repro.faults.plan.FaultPlan` specs
and the CLI's ``--fault kind=param`` flag.  A kind's implementation
(its ``factory``) is part of every faulty sweep point's cache key.

Each registration carries the metadata the plan parser needs:

* ``primary`` — the parameter a bare ``kind=value`` spec assigns
  (conventionally the fault's rate);
* ``defaults`` — the full parameter set with default values, so with
  the factory's ``param_domains`` a spec naming an unknown parameter or
  a bad value fails at parse time, not mid-simulation;
* ``doc`` — a one-line description rendered by ``hmcsim-repro info``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.errors import FaultError
from repro.registry import Registry, resolve_params

__all__ = ["FaultKind", "FAULTS", "register_fault"]


@dataclass(frozen=True)
class FaultKind:
    """One registered fault kind: factory plus parse metadata."""

    key: str
    factory: Callable[..., Any]
    primary: str
    defaults: Tuple[Tuple[str, Any], ...]
    doc: str

    def __post_init__(self) -> None:
        if self.primary not in dict(self.defaults):
            raise FaultError(
                f"fault kind {self.key!r}: primary parameter "
                f"{self.primary!r} is not among its defaults"
            )

    def resolve_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Merge ``params`` over the defaults, refusing unknown names and
        values outside the factory's ``param_domains``."""
        return resolve_params(
            f"fault kind {self.key!r}", dict(self.defaults), params,
            getattr(self.factory, "param_domains", {}), FaultError,
        )


#: The process-wide fault-kind registry; the built-in kinds register
#: from :mod:`repro.faults.injectors`, its catalog, on first lookup.
FAULTS: Registry[FaultKind] = Registry(
    "fault kind",
    FaultError,
    catalog=("repro.faults.injectors",),
    columns=("primary", "doc"),
)


def register_fault(
    key: str,
    *,
    primary: str,
    defaults: Mapping[str, Any],
    doc: str = "",
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class/function decorator registering an injector factory.

    Usage::

        @register_fault("dram_bitflip", primary="rate",
                        defaults={"rate": 0.0}, doc="...")
        class DramBitFlipInjector:
            param_domains = {"rate": (0.0, 1.0)}
            def __init__(self, controller, params, seed): ...
    """

    def _decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        kind = FaultKind(
            key=key,
            factory=factory,
            primary=primary,
            defaults=tuple(sorted(defaults.items())),
            doc=doc,
        )
        FAULTS.register(key, kind, replace=replace)
        return factory

    return _decorator
