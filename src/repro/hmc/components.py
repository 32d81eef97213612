"""Pipeline-component interfaces and the component registry.

HMC-Sim 2.0's headline contribution is extensibility: CMC plugins add
new *memory-side operations* without touching the simulator core
(paper §IV).  This module applies the same philosophy to the core's
*structural* seams.  Each stage of the device pipeline is an explicit
interface, and concrete implementations register here under string
keys — exactly how :class:`repro.core.cmc.CMCRegistry` keys custom
operations by command code — so new crossbar models, vault scheduling
policies, link-flow models, multi-cube topologies, and memory backends
become plugin-sized changes selected through :class:`HMCConfig`.

The five seams:

=================  ==========================  ===========================
seam               interface                   built-in keys
=================  ==========================  ===========================
``xbar``           :class:`CrossbarModel`      ``queued``, ``ideal``
``vault_scheduler``:class:`VaultScheduler`     ``fifo``, ``round_robin``
``link_flow``      :class:`LinkFlow`           ``none``, ``tokens``
``topology``       :class:`TopologyRouter`     ``chain``, ``ring``
``memory``         :class:`MemoryModel`        ``paged``, ``chunked``
=================  ==========================  ===========================

Each seam has its own :class:`repro.registry.Registry` in
:data:`COMPONENTS`.  Built-ins self-register from their home modules,
which each registry imports as its catalog on first lookup; third-party
components call :func:`register_component` with their own key — see
``docs/ARCHITECTURE.md`` for the end-to-end recipe.

Every seam is also :class:`Stateful`: a part owns its checkpoint
state, and the default is a stateless part.

This module deliberately imports nothing from the rest of
:mod:`repro.hmc`: interfaces must not depend on implementations, and
:mod:`repro.hmc.config` validates selections through the registry
without creating an import cycle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from copy import copy
from typing import Any, Callable, Dict, List, Set, Tuple

from repro.errors import ComponentError
from repro.registry import Registry

__all__ = [
    "SEAMS",
    "COMPONENTS",
    "seam_registry",
    "create",
    "register_component",
    "CrossbarModel",
    "VaultScheduler",
    "LinkFlow",
    "TopologyRouter",
    "MemoryModel",
    "Stateful",
]

class Stateful:
    """A part that owns its checkpoint state.

    ``STATE`` maps each plain field to its value in a freshly built
    part; ``PARTS`` names owned sub-parts (a ``Stateful``, a list of
    them, or None).  :meth:`snapshot_state` encodes only what differs
    from a fresh part, so an untouched part is ``{}``;
    :meth:`restore_state` sets whatever the document omits back to
    fresh.  A part with state of another shape extends both.
    """

    __slots__ = ()
    STATE: Dict[str, Any] = {}
    PARTS: Tuple[str, ...] = ()

    def snapshot_state(self) -> Dict[str, Any]:
        doc = {}
        for name, fresh in self.STATE.items():
            value = getattr(self, name)
            if value != fresh:
                doc[name] = value
        for name in self.PARTS:
            part = getattr(self, name)
            if isinstance(part, list):
                sub = {str(i): s for i, p in enumerate(part) if (s := p.snapshot_state())}
            else:
                sub = None if part is None else part.snapshot_state()
            if sub:
                doc[name] = sub
        return doc

    def restore_state(self, doc: Dict[str, Any]) -> None:
        for name, fresh in self.STATE.items():
            setattr(self, name, doc[name] if name in doc else copy(fresh))
        for name in self.PARTS:
            part, sub = getattr(self, name), doc.get(name, {})
            if isinstance(part, list):
                for i, p in enumerate(part):
                    p.restore_state(sub.get(str(i), {}))
            elif part is not None:
                part.restore_state(sub)


# ---------------------------------------------------------------------------
# Seam interfaces
# ---------------------------------------------------------------------------


class CrossbarModel(Stateful, ABC):
    """The logic-layer crossbar of one device (seam ``xbar``).

    Connects a device's links to its vaults through per-link request
    and response queues.  The contract is what
    :class:`repro.hmc.device.Device` uses, and most of it is state:
    the device moves queue entries itself, a run at a time, so a model
    owns the four attributes below and the two cold entry points.
    There is no pop-side method: nothing would call it.

    Factory signature: ``factory(config, dev) -> CrossbarModel``.
    """

    #: One :class:`~repro.hmc.queue.StallQueue` per link, each way;
    #: their ``depth`` is the capacity model.  The device lists them
    #: once, at construction (``Device.queues``): never replace them.
    rqst_queues: List[Any]
    rsp_queues: List[Any]
    #: O(1) entry counts over those lists: the device adjusts them per
    #: run it moves, and its idle test reads them every cycle.
    rqst_occ: int
    rsp_occ: int

    @abstractmethod
    def inject(self, link: int, flight: Any) -> bool:
        """Push a forwarded, replayed or externally built request and
        count it in ``rqst_occ``; False on stall."""

    @abstractmethod
    def push_response(self, link: int, rsp: Any) -> bool:
        """Push a vault's parked response toward its source link and
        count it in ``rsp_occ``; False on stall."""


class VaultScheduler(Stateful, ABC):
    """The request-pick policy of one vault (seam ``vault_scheduler``).

    Owns the per-cycle walk over a vault's request queue: which queued
    requests issue this cycle, and in what order.  Implementations must
    preserve the pipeline invariants the device relies on:

    * per-bank FIFO order — two requests to the same bank never
      reorder;
    * the vault's per-cycle response budget
      (``config.vault_rsp_rate``) bounds issued responses;
    * a response refused by the crossbar parks in
      ``vault._pending_rsp`` and blocks the vault;
    * queue push/pop counters stay consistent with the actual queue
      mutations.

    One scheduler instance is created *per vault* (policy state such as
    a round-robin pointer is vault-local).  That state is simulator
    state: a policy that keeps any declares it (:class:`Stateful`), and
    the checkpoint carries it per vault.

    Factory signature: ``factory(config) -> VaultScheduler``.
    """

    @abstractmethod
    def scan(self, vault: Any, device: Any, cycle: int) -> None:
        """Process ``vault``'s request queue for this cycle."""


class LinkFlow(Stateful, ABC):
    """Link-layer flow control and retry (seam ``link_flow``).

    The credit/retry contract of the HMC specification's link layer:
    token acquisition before transmit, retry-buffer bookkeeping, CRC
    corruption checks, and replay scheduling.  The ``none`` key maps to
    no model at all (``HMCSim.flow is None``), which is the baseline
    datapath with zero perturbation.

    Factory signature: ``factory(config) -> Optional[LinkFlow]``.
    """

    @abstractmethod
    def try_acquire(self, dev: int, link: int, flits: int) -> bool:
        """Consume transmit credit; False on a token stall."""

    @abstractmethod
    def refund(self, dev: int, link: int, flits: int) -> None:
        """Return credit for a packet that was never transmitted."""

    @abstractmethod
    def on_transmit(self, dev: int, link: int, flits: int, packet: Any) -> int:
        """Record a transmitted packet; returns its sequence number."""

    @abstractmethod
    def transmission_corrupted(self, dev: int, link: int, seq: int) -> bool:
        """Whether transmission ``seq`` suffered a CRC error."""

    @abstractmethod
    def acknowledge(self, dev: int, link: int, seq: int) -> None:
        """Release packet ``seq``'s retry slot and return its tokens."""

    @abstractmethod
    def negative_acknowledge(
        self, dev: int, link: int, seq: int, cycle: int, tag: int
    ) -> None:
        """Drop packet ``seq`` on a CRC error and schedule its replay."""

    @abstractmethod
    def schedule_replay(
        self, dev: int, link: int, ready_cycle: int, packet: Any
    ) -> None:
        """Re-queue a replay that could not re-enter the link."""

    @abstractmethod
    def due_replays(self, dev: int, link: int, cycle: int) -> List[Any]:
        """Packets whose retry latency has elapsed (removed)."""

    @abstractmethod
    def replay_links(self, dev: int) -> Set[int]:
        """Links of ``dev`` that currently hold scheduled replays."""

    @abstractmethod
    def has_pending_replays(self) -> bool:
        """True when any link of any device holds a scheduled replay."""

    def params(self) -> Dict[str, Any]:
        """Construction parameters (part of a checkpoint's fingerprint)."""
        return {}


class TopologyRouter(Stateful, ABC):
    """Multi-cube routing between devices (seam ``topology``).

    Owns the inter-device delay lines: requests whose CUB names
    another cube, and responses making the return trip.

    Factory signature: ``factory(sim) -> TopologyRouter``.
    """

    @abstractmethod
    def forward_request(self, from_dev: int, flight: Any, link: int) -> None:
        """Launch a request toward its target cube."""

    @abstractmethod
    def forward_response(self, from_dev: int, rsp: Any, cycle: int) -> None:
        """Launch a response back toward its originating cube."""

    @abstractmethod
    def clock(self, cycle: int) -> None:
        """Deliver in-transit packets whose hop delay has elapsed."""

    @abstractmethod
    def hop_distance(self, a: int, b: int) -> int:
        """Hops between cubes ``a`` and ``b`` under this wiring."""

    @property
    @abstractmethod
    def in_transit(self) -> int:
        """Packets currently travelling between cubes."""

    def snapshot_state(self) -> Dict[str, Any]:
        # The default knows no wire layout: only a drained router.
        if self.in_transit:
            raise ComponentError(
                "cannot checkpoint in-transit packets of a custom topology "
                "router — call drain() first"
            )
        return super().snapshot_state()


class MemoryModel(ABC):
    """Byte-addressable backing store for device memory (seam ``memory``).

    Holds the real data the paper's CMC/atomic operations read-modify-
    write.  Cold regions must read as zero (the known initial state the
    mutex model relies on).

    Factory signature: ``factory(capacity_bytes) -> MemoryModel``.
    """

    #: Total bytes addressable through this store.
    capacity: int

    @abstractmethod
    def read(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at ``addr`` (zero-fill for untouched space)."""

    @abstractmethod
    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr``."""

    @abstractmethod
    def view(self, base: int, size: int) -> Any:
        """A bounds-checked window rebased to address 0."""

    @abstractmethod
    def iter_resident(self) -> Any:
        """Yield ``(base_address, bytes)`` for each materialized region."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all state, returning the store to all-zeros."""


#: Per seam, in pipeline order: the interface its implementations
#: produce, the home module whose import registers its built-ins, and
#: their declared identities, so that validating or fingerprinting a
#: selection imports no datapath.  The composition root joins every
#: seam's catalog (the no-model ``link_flow`` and ``vector`` crossbar).
_SEAM_SPEC: Dict[str, Tuple[type, str, Dict[str, str]]] = {
    "xbar": (CrossbarModel, "repro.hmc.xbar", {
        "queued": "repro.hmc.xbar:XBar", "ideal": "repro.hmc.xbar:IdealXBar",
        "vector": "repro.hmc.composition:_vector_xbar"}),
    "vault_scheduler": (VaultScheduler, "repro.hmc.vault", {
        "fifo": "repro.hmc.vault:FIFOVaultScheduler",
        "round_robin": "repro.hmc.vault:RoundRobinVaultScheduler"}),
    "link_flow": (LinkFlow, "repro.hmc.flow", {
        "none": "repro.hmc.composition:_no_flow", "tokens": "repro.hmc.flow:_tokens_flow"}),
    "topology": (TopologyRouter, "repro.hmc.topology", {
        "chain": "repro.hmc.topology:ChainTopology", "ring": "repro.hmc.topology:RingTopology"}),
    "memory": (MemoryModel, "repro.hmc.memory", {
        "paged": "repro.hmc.memory:MemoryBackend",
        "chunked": "repro.hmc.memory:ChunkedMemoryBackend"}),
}

#: The recognised seam names, in pipeline order.
SEAMS: Tuple[str, ...] = tuple(_SEAM_SPEC)

#: The process-wide component registries every simulation composes
#: from, one per seam, keyed by seam name in pipeline order.
COMPONENTS: Dict[str, Registry] = {
    seam: Registry(
        f"{seam!r} implementation",
        ComponentError,
        catalog=(_SEAM_SPEC[seam][1], "repro.hmc.composition"),
        declared=_SEAM_SPEC[seam][2],
    )
    for seam in SEAMS
}


def seam_registry(seam: str) -> Registry:
    """The registry of ``seam``; an unknown seam is a ComponentError."""
    try:
        return COMPONENTS[seam]
    except KeyError:
        raise ComponentError(
            f"unknown seam {seam!r}: expected one of {', '.join(SEAMS)}"
        ) from None


def create(seam: str, key: str, *args: Any) -> Any:
    """Instantiate the component at ``(seam, key)``.

    The created instance is checked against the seam's interface
    (``None`` is allowed — the ``link_flow`` seam uses it for the
    no-model baseline).
    """
    component = seam_registry(seam).get(key)(*args)
    iface = _SEAM_SPEC[seam][0]
    if component is not None and not isinstance(component, iface):
        raise ComponentError(
            f"{seam!r} implementation {key!r} produced "
            f"{type(component).__name__}, which does not implement "
            f"{iface.__name__}"
        )
    return component


def register_component(
    seam: str, key: str, *, replace: bool = False
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class/function decorator registering a factory in :data:`COMPONENTS`.

    Usage (this is the whole third-party integration surface)::

        @register_component("xbar", "my_model")
        class MyXBar(CrossbarModel):
            def __init__(self, config, dev): ...
    """

    def _decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        return seam_registry(seam).register(key, factory, replace=replace)

    return _decorator
