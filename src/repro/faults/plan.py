"""Fault plans: frozen, seeded descriptions of what to break.

A :class:`FaultPlan` is the fault-injection analog of
:class:`~repro.hmc.config.HMCConfig`: a frozen, picklable value object
that fully determines behaviour.  It holds an ordered tuple of
:class:`FaultSpec` entries (kind + parameters) and one seed; attaching
the same plan to the same workload always reproduces the same faults,
bit for bit, in-process or across a worker pool — every injector draws
from splitmix64 hashes of (derived seed, stable coordinates), never
from shared mutable RNG state.

The plan's :meth:`~FaultPlan.fingerprint` is part of the persistent
sweep-cache key (:func:`repro.parallel.tasks.cache_key`), so a cached
faulty point can never alias a fault-free one or a point injected under
a different plan or seed.

Plans validate eagerly: an unknown kind or parameter, or a value
outside its kind's ``param_domains``, raises
:class:`~repro.errors.FaultError` at construction (or CLI parse) time,
before any simulation or sweep worker exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Sequence, Tuple, Union

from repro.errors import FaultError
from repro.faults.registry import FAULTS
from repro.registry import digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.controller import FaultController
    from repro.hmc.sim import HMCSim

__all__ = ["FaultSpec", "FaultPlan", "DEFAULT_FAULT_SEED", "splitmix64"]

#: Seed used when a plan does not specify one.
DEFAULT_FAULT_SEED = 0xFA017

_M64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step: every fault draw and derived seed mixes with it."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind with its parameters, as a hashable value object."""

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # Validate eagerly: the kind must exist and every named
        # parameter must be one the kind declares, inside its domain.
        # Kept outside the fields (not in eq, hash or repr) for param_dict().
        resolved = FAULTS.get(self.kind).resolve_params(dict(self.params))
        object.__setattr__(self, "_resolved", tuple(resolved.items()))

    def param_dict(self) -> Dict[str, Any]:
        """Parameters merged over the kind's defaults."""
        return dict(self._resolved)

    @classmethod
    def parse(cls, spec: str) -> "FaultSpec":
        """Parse a CLI spec: ``kind=value[,name=value...]``.

        The first (bare) value binds to the kind's *primary* parameter
        — conventionally its rate — so ``dram_bitflip=3e-4`` reads
        naturally; further comma-separated ``name=value`` pairs set any
        other declared parameter, e.g. ``vault_stall=1e-3,duration=8``.
        """
        kind_key, sep, rest = spec.partition("=")
        kind_key = kind_key.strip()
        if not sep or not kind_key or not rest.strip():
            raise FaultError(
                f"bad fault spec {spec!r} (expected kind=value[,name=value...])"
            )
        kind = FAULTS.get(kind_key)
        params: Dict[str, Any] = {}
        for i, token in enumerate(rest.split(",")):
            token = token.strip()
            if not token:
                raise FaultError(f"bad fault spec {spec!r}: empty parameter")
            name, psep, value = token.partition("=")
            if not psep:
                if i != 0:
                    raise FaultError(
                        f"bad fault spec {spec!r}: only the first value may "
                        f"omit a parameter name"
                    )
                name, value = kind.primary, name
            if name in params:
                raise FaultError(f"bad fault spec {spec!r}: duplicate {name!r}")
            params[name.strip()] = _parse_value(value.strip())
        return cls(kind=kind_key, params=tuple(sorted(params.items())))


def _parse_value(text: str) -> Union[int, float, str]:
    """Numbers become numbers (int preferred); everything else is a string."""
    try:
        return int(text, 0)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault specs plus the seed they all derive from."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = DEFAULT_FAULT_SEED

    def __post_init__(self) -> None:
        if not 0 <= self.seed < (1 << 64):
            raise FaultError(f"fault seed {self.seed!r} outside 64 bits")
        seen = set()
        for spec in self.specs:
            if spec.kind in seen:
                raise FaultError(
                    f"fault plan names kind {spec.kind!r} more than once"
                )
            seen.add(spec.kind)

    @classmethod
    def parse(
        cls, specs: Sequence[str], *, seed: int = DEFAULT_FAULT_SEED
    ) -> "FaultPlan":
        """Build a plan from CLI ``--fault`` spec strings."""
        return cls(
            specs=tuple(FaultSpec.parse(s) for s in specs), seed=seed
        )

    def kinds(self) -> Tuple[str, ...]:
        """The fault kinds this plan activates, in spec order."""
        return tuple(spec.kind for spec in self.specs)

    def derived_seed(self, index: int, kind: str) -> int:
        """The injector seed for spec ``index``: a splitmix64 fold of
        the plan seed, the spec position, and the kind name, so two
        kinds (or two positions) never share a draw stream."""
        h = splitmix64(self.seed ^ (index * 0x9E3779B97F4A7C15 & _M64))
        for byte in kind.encode("utf-8"):
            h = splitmix64(h ^ byte)
        return h

    def fingerprint(self) -> str:
        """Hex digest over the full plan: every spec's kind, the
        implementation registered for it (so re-pointing a kind at other
        code invalidates old cache entries), its *resolved* parameter
        set (defaults included, likewise), and the seed."""
        doc = {
            "seed": self.seed,
            "specs": [
                {
                    "kind": s.kind,
                    "impl": FAULTS.fingerprint(s.kind),
                    "params": s.param_dict(),
                }
                for s in self.specs
            ],
        }
        return digest(doc)

    def build(self, sim: "HMCSim") -> "FaultController":
        """Instantiate every injector against ``sim``.

        Returns the :class:`~repro.faults.controller.FaultController`
        that ``HMCSim`` stores as ``sim.faults`` — the single object
        the datapath hooks consult.
        """
        from repro.faults.controller import FaultController

        return FaultController(sim, self)

    def describe(self) -> str:
        """Short human-readable plan summary for logs and dumps."""
        if not self.specs:
            return "no faults"
        parts = []
        for spec in self.specs:
            params = ",".join(f"{k}={v}" for k, v in spec.params)
            parts.append(f"{spec.kind}({params})" if params else spec.kind)
        return f"seed={self.seed:#x} " + " ".join(parts)
