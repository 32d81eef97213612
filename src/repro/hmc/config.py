"""Device configuration and validation for HMC Gen2 simulations.

Mirrors the argument set (and legality checks) of ``hmcsim_init`` in
HMC-Sim: number of devices, links, vaults, banks, DRAM dies, capacity,
and the two queue depths; plus the maximum block size set through
``hmcsim_util_set_max_blocksize``.

The paper's evaluation uses two configurations which are provided as
constructors: :meth:`HMCConfig.cfg_4link_4gb` and
:meth:`HMCConfig.cfg_8link_8gb` (max block size 64 bytes, request queue
depth 64, crossbar queue depth 128 — §V.B of the paper).  They are
also the two entries of :data:`CONFIGS`, the one table of named
configurations: the CLI, serve ``create`` requests, trace headers and
the fuzzer all turn a name plus ``seam=impl`` selections into a config
through :func:`resolve_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ComponentError, HMCConfigError
from repro.hmc.components import SEAMS, SILENT_NONE, seam_registry
from repro.registry import resolve_params

__all__ = [
    "HMCConfig",
    "NUM_QUADS",
    "CONFIGS",
    "resolve_config",
    "validate_selection",
]

#: An HMC device always has four logic-layer quadrants.
NUM_QUADS = 4

#: Each field's domain (:func:`repro.registry.resolve_params`): ``(lo,
#: hi)`` inclusive bounds (``hi`` None = unbounded) or the accepted
#: values.  A field's type is its default's; fields not listed are
#: checked for type only.
_DOMAINS: Dict[str, Any] = {
    "num_devs": (1, 8),  # the CUB field is 3 bits
    "num_links": frozenset({4, 8}),
    "num_vaults": frozenset({16, 32}),
    "queue_depth": (2, None),
    "num_banks": frozenset({8, 16}),
    "num_drams": frozenset({16, 20}),
    "capacity": frozenset({2, 4, 8}),  # GB
    "xbar_depth": (2, None),
    # Table I's block sizes: the address-interleave boundary.
    "bsize": frozenset({32, 64, 128, 256}),
    "link_rsp_rate": (1, None),
    "vault_rsp_rate": (1, None),
    "addr_interleave": frozenset({"vault", "bank"}),
}


@dataclass(frozen=True)
class HMCConfig:
    """Validated configuration for one simulation context.

    The defaults are the paper's 4Link-4GB configuration (§V.B).

    Attributes:
        num_devs: devices in the (possibly chained) topology, 1..8.
        num_links: host links per device (4 or 8).
        num_vaults: vaults per device (16 or 32).
        queue_depth: vault request queue depth in slots.
        num_banks: banks per vault (8 or 16).
        num_drams: DRAM dies per device (16 or 20).
        capacity: device capacity in GB (2, 4, or 8).
        xbar_depth: per-link crossbar queue depth in slots.
        bsize: maximum block size in bytes (32..256); controls the
            address-interleave boundary.
        check_crc: verify CRCs of the words a caller hands to ``compat``'s
            ``hmcsim_send``; built packets carry a CRC of their own fields.
        link_rsp_rate: response packets a link can retire to the host
            per device cycle (the serial link's finite bandwidth).
            Saturates per-link, so it is the source of the (small)
            4-link/8-link divergence past ~50 threads in the paper's
            Figures 5-7.
        vault_rsp_rate: response packets one vault can push into the
            crossbar per device cycle (the vault's response port).
            Link-count *independent*, so under the paper's single-
            lock hot spot it is the dominant bottleneck that makes
            the two configurations saturate at the same thread count,
            with the 8-link device ahead by only ~1-2%.
    """

    num_devs: int = 1
    num_links: int = 4
    num_vaults: int = 32
    queue_depth: int = 64
    num_banks: int = 16
    num_drams: int = 20
    capacity: int = 4
    xbar_depth: int = 128
    bsize: int = 64
    check_crc: bool = False
    link_rsp_rate: int = 4
    vault_rsp_rate: int = 16
    #: Address interleave order above the block offset: "vault" (the
    #: spec default: consecutive blocks sweep vaults, then banks) or
    #: "bank" (consecutive blocks sweep banks within one vault first).
    addr_interleave: str = "vault"
    #: Component selections, one per pipeline seam.  Each value must
    #: name an implementation registered with the component registry
    #: (:mod:`repro.hmc.components`); the defaults reproduce the
    #: paper's pipeline bit-for-bit.
    xbar: str = "queued"
    vault_scheduler: str = "fifo"
    link_flow: str = "none"
    timing: str = "none"
    power: str = "none"

    def __post_init__(self) -> None:
        resolve_params("HMCConfig", _DEFAULTS, vars(self), _DOMAINS, HMCConfigError)
        for seam in SEAMS:
            validate_selection(seam, getattr(self, seam))

    def component_selection(self) -> Dict[str, str]:
        """Every seam's selected key, less a ``SILENT_NONE`` seam left at
        ``none``: what each identity of this configuration folds in."""
        return {s: k for s in SEAMS if (k := getattr(self, s)) != "none" or s not in SILENT_NONE}

    # -- derived geometry ---------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        """Capacity of one device in bytes."""
        return self.capacity << 30

    @property
    def total_bytes(self) -> int:
        """Capacity of the whole topology in bytes."""
        return self.capacity_bytes * self.num_devs

    @property
    def vaults_per_quad(self) -> int:
        """Vaults owned by each of the four logic-layer quadrants."""
        return self.num_vaults // NUM_QUADS

    @property
    def links_per_quad(self) -> int:
        """Host links attached to each quadrant (1 for 4-link, 2 for 8-link)."""
        return self.num_links // NUM_QUADS

    def quad_of_vault(self, vault: int) -> int:
        """Quadrant that owns ``vault``."""
        return vault // self.vaults_per_quad

    def quad_of_link(self, link: int) -> int:
        """Quadrant a link is physically attached to."""
        return link // self.links_per_quad

    # -- the paper's two evaluation configurations --------------------------

    @classmethod
    def cfg_4link_4gb(cls, **overrides: object) -> "HMCConfig":
        """The paper's 4Link-4GB configuration (§V.B): the field defaults."""
        return cls(**overrides)

    @classmethod
    def cfg_8link_8gb(cls, **overrides: object) -> "HMCConfig":
        """The paper's 8Link-8GB configuration (§V.B): 4Link-4GB with
        eight links and 8 GB."""
        return cls(**{"num_links": 8, "capacity": 8, **overrides})

    def describe(self) -> str:
        """Short human-readable configuration name, e.g. ``4Link-4GB``."""
        return f"{self.num_links}Link-{self.capacity}GB"

    def geometry(self) -> Tuple[int, int, int, int]:
        """(devices, links, vaults, banks) tuple for quick inspection."""
        return (self.num_devs, self.num_links, self.num_vaults, self.num_banks)


#: Every field's default, whose type the field's value must have.
_DEFAULTS: Dict[str, Any] = {f.name: f.default for f in fields(HMCConfig)}

#: The named configurations, by the name a CLI flag, a serve ``create``
#: request, a trace header or a fuzz trace uses.
CONFIGS: Dict[str, Callable[..., HMCConfig]] = {
    "4link_4gb": HMCConfig.cfg_4link_4gb,
    "8link_8gb": HMCConfig.cfg_8link_8gb,
}


def validate_selection(seam: str, key: str) -> None:
    """Raise :class:`HMCConfigError` unless ``(seam, key)`` is registered.

    Called for every seam from ``HMCConfig.__post_init__``, so a bad
    selection fails at configuration time with the known keys in the
    message, not deep in construction.
    """
    try:
        registry = seam_registry(seam)
    except ComponentError as exc:
        raise HMCConfigError(str(exc)) from None
    if not registry.has(key):
        raise HMCConfigError(
            f"{seam}={key!r} does not name a registered {seam} "
            f"implementation (known keys: {', '.join(registry.keys())})"
        )


def resolve_config(
    name: str,
    components: Optional[Mapping[str, str] | Sequence[Tuple[str, str]]] = None,
) -> HMCConfig:
    """The configuration called ``name`` with ``seam=impl`` selections
    (a mapping, or the ``(seam, impl)`` pairs the CLI parses).

    ``name`` is a key of :data:`CONFIGS` or its link count alone
    (``4link``, as the CLI spells it).  Raises :class:`HMCConfigError`
    naming the known keys for an unknown name, seam or implementation.
    """
    factory = next(
        (f for key, f in CONFIGS.items() if name in (key, key.split("_")[0])),
        None,
    )
    if factory is None:
        raise HMCConfigError(
            f"unknown config {name!r} (known keys: {', '.join(CONFIGS)})"
        )
    overrides = dict(components or {})
    for seam, key in overrides.items():
        validate_selection(seam, key)
    return factory(**overrides)
