"""Status codes and exception hierarchy for the HMC-Sim reproduction.

HMC-Sim's C API signals conditions through integer return codes
(``0`` success, ``HMC_STALL``, ``-1`` error).  The Python API keeps the
stall *status* as a non-exceptional return value — stalls are a normal,
frequent simulation outcome — while configuration and usage errors raise
exceptions.  The :mod:`repro.compat` layer converts exceptions back into
C-style return codes for callers that want the original contract.
"""

from __future__ import annotations

import enum


class HMCStatus(enum.IntEnum):
    """C-style status codes mirroring HMC-Sim's return-value conventions."""

    #: Operation completed successfully (``0`` in HMC-Sim).
    OK = 0
    #: Target queue was full; caller should retry next cycle (``HMC_STALL``).
    STALL = 2
    #: Generic error (``-1`` in HMC-Sim).
    ERROR = -1


#: Convenience aliases matching the C macro names.
HMC_OK = HMCStatus.OK
HMC_STALL = HMCStatus.STALL
HMC_ERROR = HMCStatus.ERROR


class HMCSimError(Exception):
    """Base class for all errors raised by the simulator."""


class HMCConfigError(HMCSimError, ValueError):
    """An invalid device configuration was requested.

    Raised for the same conditions under which ``hmcsim_init`` returns
    ``-1``: unsupported link counts, capacities, queue depths, etc.
    """


class HMCPacketError(HMCSimError, ValueError):
    """A malformed packet was built, sent, or decoded."""


class HMCAddressError(HMCSimError, ValueError):
    """A request targeted an address outside the configured capacity."""


class CMCError(HMCSimError):
    """Base class for Custom Memory Cube (CMC) infrastructure errors."""


class CMCLoadError(CMCError):
    """A CMC plugin could not be loaded or registered.

    This is the analog of ``hmc_load_cmc`` returning ``-1``: the shared
    library failed to load (module import error), a required symbol did
    not resolve (missing attribute), or the registration data was
    inconsistent (command code outside the CMC space, duplicate
    registration, bad FLIT lengths).
    """


class CMCNotActiveError(CMCError):
    """A packet used a CMC command code with no registered operation.

    Mirrors ``hmcsim_process_rqst`` rejecting commands not marked
    *active* in the ``hmc_cmc_t`` table.
    """


class CMCExecutionError(CMCError):
    """A CMC plugin's execute function failed or misbehaved.

    Raised when ``hmcsim_execute_cmc`` returns a nonzero status or
    overruns its response payload (the buffer-overflow condition the
    paper explicitly cautions implementors about).
    """


class TagError(HMCSimError, ValueError):
    """A request or response used an invalid or duplicate tag."""


class ComponentError(HMCSimError):
    """A pipeline-component registration or lookup failed.

    The component registries (:data:`repro.hmc.components.COMPONENTS`,
    one per seam) key pluggable pipeline stages — crossbar, vault
    scheduler, link flow, timing and power models — by string.
    Registering a duplicate key, registering under an unknown seam,
    requesting an implementation that was never registered, or a
    factory producing an object of the wrong interface raises this
    error.
    """


class WorkloadError(HMCSimError):
    """A workload-frontend registration, lookup, or run request failed.

    The workload registry (:mod:`repro.workloads.registry`) keys
    frontends — kernel adapters, trace replay, task graphs — by string
    name.  Registering a duplicate
    name, requesting an unknown workload, passing parameters a frontend
    does not declare, or driving a frontend in a mode it does not
    support (e.g. recording a multi-phase kernel) raises this error.
    """


class ServeError(HMCSimError):
    """A simulation-service request was rejected.

    Raised by the serve layer (:mod:`repro.serve`) for protocol
    violations, admission-control refusals, and per-session quota
    breaches.  Carries a machine-readable ``code`` (``bad_request``,
    ``over_capacity``, ``quota_exceeded``, ``unknown_session``,
    ``protocol_version``, ``draining``, ``internal``) so remote clients
    can dispatch on the refusal without parsing prose.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class FaultError(HMCSimError):
    """A fault-injection plan could not be parsed, registered, or built.

    Raised by the fault registry (:mod:`repro.faults.registry`) for
    unknown fault kinds, duplicate registrations, malformed
    ``kind=param`` specs, and plans whose requirements the simulation
    context cannot satisfy (e.g. a link-CRC fault with no flow model).
    """


class InvariantViolation(HMCSimError):
    """A cycle-wise simulation invariant failed to hold.

    Raised by :class:`repro.faults.invariants.InvariantChecker` when
    tag conservation, link-token conservation, or a queue-depth bound
    is violated.  The message names the failing invariant and the
    offending structure; chaos tests treat any such raise as a
    simulator bug, not a workload property.
    """


class OracleDivergenceError(HMCSimError):
    """The cycle engine disagreed with the functional reference model.

    Raised by the host engine's online sampled oracle
    (``HostEngine(oracle_sample=N)``) when a shadow-executed request's
    expected response does not match the one the datapath produced.
    Like :class:`SimDeadlockError` it carries a
    :class:`repro.hmc.sim.DeadlockDump` (``dump``
    attribute) whose ``extra`` section names the sampled request, the
    expectation, and the actual response — a divergence is a simulator
    bug and must be diagnosable from the exception alone.
    """

    def __init__(self, message: str, *, dump: object = None):
        self.dump = dump
        if dump is not None:
            message = f"{message}\n{dump}"
        super().__init__(message)


class SimDeadlockError(HMCSimError):
    """A workload stopped making forward progress.

    Replaces the bare ``max_cycles``-overrun raises: carries a
    :class:`repro.hmc.sim.DeadlockDump` (``dump`` attribute)
    with queue occupancies, outstanding tags, and token counts so a
    hang is diagnosable from the exception alone.  The dump's text is
    appended to the message; ``dump`` may be ``None`` for callers that
    cannot collect one.
    """

    def __init__(self, message: str, *, dump: object = None):
        self.dump = dump
        if dump is not None:
            message = f"{message}\n{dump}"
        super().__init__(message)
