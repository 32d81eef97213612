"""The per-simulation fault controller: the object behind ``sim.faults``.

:class:`FaultController` is what a built :class:`~repro.faults.plan.
FaultPlan` turns into — one instance per simulation context, holding
one injector per *site* of the datapath:

=============  ==================================================
site           where the datapath consults it
=============  ==================================================
``dram``       :func:`repro.hmc.vault.process_rqst`, READ branch
``vault``      :meth:`repro.hmc.device.Device._phase_vault_execute`
``rsp_drop``   :meth:`repro.hmc.device.Device._phase_retire`
``rsp_dup``    :meth:`repro.hmc.device.Device._phase_retire`
``cmc``        :func:`repro.hmc.vault.process_rqst`, CMC branch
``link``       build-time only (configures the flow ErrorModel)
=============  ==================================================

The hot paths check ``sim.faults is None`` (plus one cached boolean per
site) before touching anything here, so with no plan attached the
datapath is bit-identical to the baseline — the paper's
"No Simulation Perturbation" requirement extended to fault injection.

The controller also owns the bookkeeping the resilience layer shares:

* ``counts`` — per-event fault counters, surfaced by ``HMCSim.stats()``
  and sampled, cumulative per kind, into
  :attr:`repro.hmc.stats.SimSampler.fault_series`;
* the *lost-tag* map — ``(cub, tag)`` pairs whose response a fault
  destroyed, to the fault kind that destroyed it, consulted by the
  :class:`~repro.faults.invariants.InvariantChecker` (a lost tag is
  excused from in-flight conservation until the watchdog retransmits
  it), named in deadlock dumps, and cleared by the host watchdog on
  retransmit.

Every fault occurrence flows through :meth:`note`, which increments the
counter and emits a ``FAULT``-level trace event, so
``analysis/traceview.py`` can reconstruct fault timelines from the
bounded trace ring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import FaultError
from repro.faults.registry import FAULTS
from repro.hmc.components import Stateful

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan
    from repro.hmc.sim import HMCSim

__all__ = [
    "FaultController",
    "FATE_DELIVER",
    "FATE_DROP",
    "FATE_DUP",
]

#: Response fates returned by :meth:`FaultController.response_fate`.
FATE_DELIVER = 0
FATE_DROP = 1
FATE_DUP = 2

#: Sites an injector may occupy (class attribute ``site`` on injectors).
_SITES = ("dram", "vault", "rsp_drop", "rsp_dup", "cmc", "link")


class FaultController(Stateful):
    """All active injectors plus shared fault bookkeeping for one sim."""

    def __init__(self, sim: "HMCSim", plan: "FaultPlan"):
        self.sim = sim
        self.plan = plan
        self.counts: Dict[str, int] = {}
        #: (cub, tag) whose expected response a fault destroyed → the
        #: fault kind, so a deadlock dump can *name* it when a watchdog
        #: exhausts the tag.  Its keys are the lost-tag set.
        self.lost_tags: Dict[Tuple[int, int], str] = {}
        self.dram = None
        self.vault = None
        self.rsp_drop = None
        self.rsp_dup = None
        self.cmc = None
        self.link = None
        for index, spec in enumerate(plan.specs):
            kind = FAULTS.get(spec.kind)
            injector = kind.factory(
                self, spec.param_dict(), plan.derived_seed(index, spec.kind)
            )
            site = getattr(injector, "site", None)
            if site not in _SITES:
                raise FaultError(
                    f"fault kind {spec.kind!r} produced an injector with "
                    f"unknown site {site!r} (expected one of {', '.join(_SITES)})"
                )
            if getattr(self, site) is not None:
                raise FaultError(
                    f"fault plan installs two injectors at site {site!r} "
                    f"({spec.kind!r} conflicts with an earlier spec)"
                )
            setattr(self, site, injector)
        # One cached boolean per hot-path site, so the per-cycle device
        # phases pay a single attribute test beyond ``faults is None``.
        self.has_dram = self.dram is not None
        self.has_vault = self.vault is not None
        self.has_rsp_faults = (
            self.rsp_drop is not None or self.rsp_dup is not None
        )
        self.has_cmc = self.cmc is not None

    # -- shared bookkeeping ----------------------------------------------------

    def note(self, kind: str, cycle: int, **fields: object) -> None:
        """Count one fault occurrence and trace it at FAULT level."""
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.sim.tracer.trace_fault(cycle, kind=kind, **fields)

    def record_lost(self, cub: int, tag: int, kind: str = "rsp_drop") -> None:
        """Mark an expected response as destroyed by a fault."""
        self.lost_tags[(cub, tag)] = kind

    def clear_lost(self, cub: int, tag: int) -> None:
        """The watchdog is retransmitting this tag: it is in flight again."""
        self.lost_tags.pop((cub, tag), None)

    def on_response_dropped(
        self, dev: int, link: int, rsp: object, cycle: int
    ) -> None:
        """Bookkeeping for a response the crossbar fault destroyed:
        record the lost tag (excusing it from tag conservation until
        the watchdog retransmits) and count/trace the event."""
        self.record_lost(rsp.cub, rsp.tag)
        self.note("rsp_drop", cycle, dev=dev, link=link, tag=rsp.tag)

    # -- datapath dispatch ------------------------------------------------------

    def response_fate(self, dev: int, link: int, rsp: object, cycle: int) -> int:
        """Decide what happens to a response at the crossbar retire port.

        Drop wins over duplicate when both injectors fire on the same
        response (a destroyed packet cannot also be duplicated).
        """
        drop = self.rsp_drop
        if drop is not None and drop.fires(dev, link, rsp, cycle):
            return FATE_DROP
        dup = self.rsp_dup
        if dup is not None and dup.fires(dev, link, rsp, cycle):
            return FATE_DUP
        return FATE_DELIVER

    # -- checkpointing ----------------------------------------------------------

    # The plan itself is configuration (the checkpoint fingerprint);
    # its draws are stateless hashes of (seed, cycle, coordinates).
    STATE = {"counts": {}}

    def snapshot_state(self) -> Dict[str, object]:
        doc = super().snapshot_state()
        if self.lost_tags:
            doc["lost_tags"] = [
                [cub, tag, kind] for (cub, tag), kind in sorted(self.lost_tags.items())
            ]
        return doc

    def restore_state(self, doc: Dict[str, object]) -> None:
        super().restore_state(doc)
        self.lost_tags = {
            (cub, tag): kind for cub, tag, kind in doc.get("lost_tags", ())
        }

    # -- statistics -------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """All fault counters, plus link retries when a flow model is
        attached (the unified view of the link ``ErrorModel``)."""
        out = dict(sorted(self.counts.items()))
        flow = self.sim.flow
        if flow is not None:
            total = getattr(flow, "total_retries", None)
            if total is not None:
                out["link_retries"] = total()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultController({self.plan.describe()}, counts={self.counts})"
