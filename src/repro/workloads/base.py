"""The workload-frontend seam.

HMC-Sim 2.0's evaluation (§V) drives the device with hand-written host
kernels; our reproduction grew nine of them.  This module is the seam
that makes them — and trace replay, and task graphs — interchangeable:
a :class:`WorkloadFrontend` turns a ``(config, params)`` pair into
thread programs for the host engine, the same way Ramulator 2's
frontend interface makes trace-driven and execution-driven workloads
swappable implementations of one API.  :meth:`WorkloadFrontend.run` is
the single driver; a frontend states each step of its workload once:

``default_params()`` / ``param_domains``
    The parameter set and each parameter's valid range.
    :meth:`~WorkloadFrontend.resolve_params` rejects unknown,
    mistyped, or out-of-range parameters through
    :func:`repro.registry.resolve_params`, the one contract fault kinds
    and ``HMCConfig`` fields share.

``prepare(sim, params)``
    Initial device state: CMC modules to load, memory preloads.
    Idempotent; :meth:`~WorkloadFrontend.run` calls it itself, and
    trace replay calls it to reconstruct the recorded run's starting
    state from the trace header alone.

``new_engine(sim, params, fault_plan)``
    The engine that drives the run (default: a plain
    :class:`~repro.host.engine.HostEngine`).

``build(sim, params)``
    The heart of the seam: a list of thread-program factories
    (``Callable[[ThreadCtx], Program]``), one per simulated thread.
    The simulation context is passed (rather than the bare config) so
    programs may close over per-run state that :meth:`prepare` set up.

``finish(sim, params)``
    Post-engine settling (draining posted traffic).

``stats(sim, params, result)``
    The run's stats object, built from the engine result.

``footprint(config, params)``
    The address regions the workload touches, as ``(base, nbytes)``
    pairs — consumed by trace tooling and the differential oracle's
    conflict fencing.

``verify(sim, params, result)``
    Post-run correctness check (``None`` when the workload has no
    memory-checkable answer).

``format_stats(stats, fault_plan)`` / ``passed(stats)``
    What the CLI prints for a run, and whether the run passed its
    checks (the CLI exits 1 when one did not).

A CLI subcommand backed by a frontend is a view of it: each flag's
dest is a ``default_params()`` name or one of ``repro.cli.CLI_ONLY``;
``cli_variants`` turns the params into the invocation's runs, and
``default_config`` names the configuration a run takes by default.

Frontends register themselves by string name in
:data:`repro.workloads.registry.WORKLOADS`; no module but the one that
defines a concrete frontend class may name it — the same discipline the
component registry enforces for pipeline seams, checked by the same
structural lint.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.registry import resolve_params

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hmc.config import HMCConfig
    from repro.hmc.sim import HMCSim
    from repro.host.thread import Program, ThreadCtx

__all__ = ["Footprint", "WorkloadFrontend", "WorkloadError"]

#: Address regions a workload touches: ``((base, nbytes), ...)``.
Footprint = Tuple[Tuple[int, int], ...]

#: A thread-program factory, as the host engine consumes them.
ProgramFactory = Callable[["ThreadCtx"], "Program"]


class WorkloadFrontend(ABC):
    """One workload behind the registry seam.

    Class attributes double as registry metadata:

    ``name``
        The registry key (``"mutex"``, ``"trace"``, ``"graph:counter"``).
    ``version``
        Folded into the parallel cache key via the workload
        fingerprint; bump it whenever the workload's observable
        behaviour changes.
    ``kind``
        ``"kernel"`` (runnable via the ``kernel`` CLI subcommand),
        ``"trace"``, or ``"graph"``.
    ``supports_faults``
        Whether :meth:`run` accepts a fault plan.
    ``recordable``
        Whether the single-engine run can be captured by the trace
        recorder (multi-phase kernels that run several engines are
        not).
    ``accepts_sim``
        Whether :meth:`run` can execute on a caller-provided warm
        simulation context (``sim=``).  False for frontends that must
        build their own context (multi-phase kernels, trace replay);
        the serve layer uses this to decide whether a session
        submission runs on the session's warm sim or a fresh one.
    ``param_domains``
        Valid values per parameter: ``(lo, hi)`` inclusive bounds
        (``hi`` ``None`` = unbounded) or a ``frozenset`` of choices.
    """

    name: str = ""
    version: str = "1"
    description: str = ""
    kind: str = "kernel"
    supports_faults: bool = False
    recordable: bool = False
    accepts_sim: bool = True
    param_domains: Dict[str, Any] = {}

    # -- parameters -----------------------------------------------------------

    def default_params(self) -> Dict[str, Any]:
        """The parameter dictionary :meth:`run` merges user params into."""
        return {}

    def resolve_params(self, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Merge ``params`` over the defaults.

        Parameters arrive from the CLI and the serve socket, so this is
        where every bad one is refused: an unknown key, a value whose
        type differs from the default's, or one outside the parameter's
        declared domain raises :class:`WorkloadError` naming the
        parameter and what it accepts (:func:`repro.registry.resolve_params`).
        """
        return resolve_params(
            f"workload {self.name!r}", self.default_params(), params,
            self.param_domains, WorkloadError,
        )

    # -- the seam -------------------------------------------------------------

    def prepare(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        """Set up initial device state (CMC modules, memory preloads).

        Idempotent: :meth:`run` always calls it, and callers that also
        did (to inspect the prepared state first) get identical stats.
        """

    def new_sim(self, config: HMCConfig, params: Dict[str, Any]) -> HMCSim:
        """The simulation context of a run the caller brought none to."""
        from repro.hmc.sim import HMCSim

        return HMCSim(config)

    def new_engine(self, sim: HMCSim, params: Dict[str, Any], fault_plan: Any) -> Any:
        """The engine one run drives :meth:`build`'s programs with."""
        from repro.host.engine import HostEngine

        return HostEngine(sim, max_cycles=params.get("max_cycles", 1_000_000))

    @abstractmethod
    def build(
        self, sim: HMCSim, params: Dict[str, Any]
    ) -> List[ProgramFactory]:
        """Thread-program factories for one engine run, in tid order."""

    def footprint(self, config: HMCConfig, params: Dict[str, Any]) -> Footprint:
        """Address regions the workload touches (may be empty); like
        every hook, takes parameters :meth:`resolve_params` resolved."""
        return ()

    def finish(self, sim: HMCSim, params: Dict[str, Any]) -> None:
        """Post-engine settling (e.g. draining posted traffic)."""

    def verify(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> Optional[bool]:
        """Post-run check; ``None`` when nothing is memory-checkable."""
        return None

    def stats(self, sim: HMCSim, params: Dict[str, Any], result: Any) -> Any:
        """The run's stats object, built from the engine ``result``.

        The default returns the engine result itself, refusing one that
        fails :meth:`verify`; frontends with their own stats dataclass
        override this and report the verification outcome in it.
        """
        if self.verify(sim, params, result) is False:
            raise WorkloadError(
                f"workload {self.name!r} failed post-run verification"
            )
        return result

    # -- the command line -----------------------------------------------------

    def cli_variants(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        """The runs one CLI invocation makes from its flags' params."""
        return [params]

    def default_config(self, params: Dict[str, Any]) -> Optional[str]:
        """The named configuration a run takes when the caller names none
        (``None``: the caller's default)."""
        return None

    def format_stats(self, stats: Any, fault_plan: Any = None) -> str:
        """The run's CLI rendering (each built-in frontend has its own)."""
        return repr(stats)

    def passed(self, stats: Any) -> bool:
        """Whether the run passed its checks: neither ``verified`` nor
        ``matches_baseline`` is False (``None`` checks nothing)."""
        return not (
            getattr(stats, "verified", None) is False
            or getattr(stats, "matches_baseline", None) is False
        )

    # -- driving --------------------------------------------------------------

    def admit(
        self,
        params: Optional[Dict[str, Any]],
        sim: Optional[HMCSim],
        fault_plan: Any,
        recorder: Any,
    ) -> Dict[str, Any]:
        """Refuse a :meth:`run` request this frontend cannot serve;
        returns the resolved parameters of one it can."""
        faulty = fault_plan is not None or (sim is not None and sim.faults is not None)
        if faulty and not self.supports_faults:
            raise WorkloadError(
                f"workload {self.name!r} does not support fault plans"
            )
        if recorder is not None and not self.recordable:
            raise WorkloadError(
                f"workload {self.name!r} cannot be trace-recorded"
            )
        if sim is not None and not self.accepts_sim:
            raise WorkloadError(
                f"workload {self.name!r} builds its own context"
            )
        resolved = self.resolve_params(params)
        if fault_plan is not None and resolved.get("oracle_sample") is not None:
            raise WorkloadError(
                "oracle_sample checks the fault-free functional contract; "
                "it cannot run under a fault plan"
            )
        return resolved

    def run(
        self,
        config: HMCConfig,
        params: Optional[Dict[str, Any]] = None,
        *,
        sim: Optional[HMCSim] = None,
        fault_plan: Any = None,
        recorder: Any = None,
    ) -> Any:
        """Run the workload once and return its stats object.

        The single driver: resolve params, bring up (or adopt) the
        context, :meth:`prepare`, :meth:`new_engine`, one thread per
        :meth:`build` factory, run, :meth:`finish`, :meth:`stats`.
        Multi-phase workloads that need several engine runs override
        it with their own orchestration.
        """
        resolved = self.admit(params, sim, fault_plan, recorder)
        if sim is None:
            sim = self.new_sim(config, resolved)
        self.prepare(sim, resolved)
        engine = self.new_engine(sim, resolved, fault_plan)
        if recorder is not None:
            engine.recorder = recorder
        for factory in self.build(sim, resolved):
            engine.add_thread(factory)
        result = engine.run()
        self.finish(sim, resolved)
        return self.stats(sim, resolved, result)
