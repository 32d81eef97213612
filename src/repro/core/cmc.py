"""CMC data structures: the ``hmc_cmc_t`` analog and the operation registry.

§IV.C.1 of the paper: each loaded Custom Memory Cube operation is
described by an ``hmc_cmc_t`` structure holding the request enum and
command code, request/response FLIT lengths, the response command (and
custom response code when the response command is ``RSP_CMC``), and
three function pointers resolved from the plugin at load time —
``cmc_register``, ``cmc_execute``, and ``cmc_str``.

The registry enforces the architectural limits from the paper:

* at most **70** operations loaded concurrently (one per unused Gen2
  command code);
* a command not marked *active* is rejected at packet-processing time
  (``hmcsim_process_rqst`` returns an error);
* execution happens through the stored function reference, keeping the
  implementation entirely outside the simulator core.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CMCExecutionError, CMCLoadError, CMCNotActiveError
from repro.hmc.commands import (
    MAX_PACKET_FLITS,
    hmc_response_t,
    hmc_rqst_t,
    is_cmc_code,
)

__all__ = ["CMCRegistration", "CMCOperation", "CMCRegistry", "MAX_CMC_OPS", "ExecuteFn"]


@lru_cache(maxsize=32)
def _word_packer(n_words: int):
    """Bound ``pack`` method of a little-endian ``n_words``-u64 Struct."""
    return struct.Struct("<%dQ" % n_words).pack

#: Maximum number of concurrently loaded CMC operations (paper §I/§IV.A).
MAX_CMC_OPS = 70

#: Signature of a plugin's ``hmcsim_execute_cmc`` function (Table IV).
#: ``(hmc, dev, quad, vault, bank, addr, length, head, tail,
#:   rqst_payload, rsp_payload) -> int``
ExecuteFn = Callable[..., int]


@dataclass(frozen=True)
class CMCRegistration:
    """The data a plugin's ``cmc_register`` function reports (Table III).

    Attributes:
        op_name: unique human-readable operation name for traces.
        rqst: the ``CMCnn`` request enum member claimed by the op.
        cmd: the decimal command code; must match ``rqst``.
        rqst_len: total request packet length in FLITs (1..17).
        rsp_len: total response packet length in FLITs (0 for posted).
        rsp_cmd: response command type; ``RSP_CMC`` selects a custom
            wire code taken from ``rsp_cmd_code``.
        rsp_cmd_code: the custom response command code (used only when
            ``rsp_cmd`` is ``RSP_CMC``).
        footprint: bytes the op touches at its target address, or
            ``None`` when that depends on memory contents.  Read by the
            verification stack only, never by ``execute``.
    """

    op_name: str
    rqst: hmc_rqst_t
    cmd: int
    rqst_len: int
    rsp_len: int
    rsp_cmd: hmc_response_t
    rsp_cmd_code: int = 0
    footprint: Optional[int] = None

    def validate(self) -> None:
        """Check internal consistency; raise :class:`CMCLoadError` if bad."""
        if not self.op_name:
            raise CMCLoadError("CMC registration: op_name must be non-empty")
        if int(self.rqst) != self.cmd:
            raise CMCLoadError(
                f"CMC registration for {self.op_name!r}: rqst enum "
                f"{self.rqst.name} (code {int(self.rqst)}) does not match "
                f"cmd field {self.cmd}"
            )
        if not is_cmc_code(self.cmd):
            raise CMCLoadError(
                f"CMC registration for {self.op_name!r}: command code "
                f"{self.cmd} is defined by the HMC specification and cannot "
                f"host a custom operation"
            )
        if not 1 <= self.rqst_len <= MAX_PACKET_FLITS:
            raise CMCLoadError(
                f"CMC registration for {self.op_name!r}: rqst_len "
                f"{self.rqst_len} outside 1..{MAX_PACKET_FLITS} FLITs"
            )
        if not 0 <= self.rsp_len <= MAX_PACKET_FLITS:
            raise CMCLoadError(
                f"CMC registration for {self.op_name!r}: rsp_len "
                f"{self.rsp_len} outside 0..{MAX_PACKET_FLITS} FLITs"
            )
        if self.rsp_len > 0 and self.rsp_cmd is hmc_response_t.RSP_NONE:
            raise CMCLoadError(
                f"CMC registration for {self.op_name!r}: rsp_len "
                f"{self.rsp_len} > 0 but rsp_cmd is RSP_NONE"
            )
        if self.rsp_cmd is hmc_response_t.RSP_CMC and not 0 <= self.rsp_cmd_code < 128:
            raise CMCLoadError(
                f"CMC registration for {self.op_name!r}: custom response "
                f"code {self.rsp_cmd_code} outside the 7-bit command space"
            )
        fp = self.footprint
        if fp is not None and (type(fp) is not int or fp <= 0):
            raise CMCLoadError(
                f"CMC registration for {self.op_name!r}: footprint {fp!r} "
                f"must be a positive int (bytes touched at the target)"
            )

    @cached_property
    def posted(self) -> bool:
        """True when the operation never produces a response packet.

        Read once per executed request; cached on the (frozen) instance
        so later reads are plain attribute loads.
        """
        return self.rsp_len == 0

    @property
    def wire_rsp_cmd(self) -> int:
        """The response command code placed on the wire."""
        if self.rsp_cmd is hmc_response_t.RSP_CMC:
            return self.rsp_cmd_code
        return int(self.rsp_cmd)


@dataclass
class CMCOperation:
    """One loaded CMC operation: the ``hmc_cmc_t`` structure analog.

    Combines the registration data with the three resolved function
    references and the *active* flag checked by the packet processor.
    """

    registration: CMCRegistration
    cmc_register: Callable[[], CMCRegistration]
    cmc_execute: ExecuteFn
    cmc_str: Callable[[], str]
    #: Where the implementation came from (module name or file path).
    source: str = "<inline>"
    #: Checked by the packet processor.  Assignable at any time: the
    #: property installed below tells every registry holding the op.
    active: bool = True
    #: Execution counter (simulator bookkeeping, not part of hmc_cmc_t).
    executions: int = field(default=0, compare=False)
    #: Registries this op is registered in (see ``active``).
    _owners: List["CMCRegistry"] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def cmd(self) -> int:
        """The request command code this operation occupies."""
        return self.registration.cmd

    @property
    def op_name(self) -> str:
        """The trace-visible operation name."""
        return self.registration.op_name


def _get_active(op: CMCOperation) -> bool:
    return op.__dict__["active"]


def _set_active(op: CMCOperation, value: bool) -> None:
    op.__dict__["active"] = value
    # An activation change is a registry mutation: whatever was
    # memoized about this command code is stale.  (The dataclass
    # __init__ assigns ``active`` before ``_owners`` exists.)
    for registry in op.__dict__.get("_owners", ()):
        registry._mutated()


# Installed after the dataclass machinery has read the field default.
CMCOperation.active = property(  # type: ignore[assignment]
    _get_active, _set_active, doc="Whether the packet processor may dispatch the op."
)


class CMCRegistry:
    """The table of loaded CMC operations keyed by command code."""

    def __init__(self) -> None:
        self._ops: Dict[int, CMCOperation] = {}
        #: Mutation epoch, bumped by :meth:`register`, :meth:`unregister`
        #: and any registered op's ``active`` assignment.  The one
        #: invalidation rule: whatever is memoized from the registry
        #: (``HMCSim``'s expects-a-response answers, the execute arm
        #: below) is good only for the epoch it was computed in.
        self.epoch = 0
        #: The predecoded execute arm: command code -> ``(op, response
        #: words, word packer, wire response command)`` for *active*
        #: ops, filled on first execute and emptied at every epoch bump.
        self._decoded: Dict[int, Tuple[CMCOperation, int, Callable, int]] = {}

    def _mutated(self) -> None:
        self.epoch += 1
        self._decoded.clear()

    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, cmd: int) -> bool:
        return cmd in self._ops

    def register(self, op: CMCOperation) -> None:
        """Install a loaded operation.

        Raises:
            CMCLoadError: if the registration data is inconsistent, the
                command code is already occupied, a different operation
                already uses the same ``op_name``, or the 70-op limit
                is reached.
        """
        op.registration.validate()
        if len(self._ops) >= MAX_CMC_OPS:
            raise CMCLoadError(
                f"cannot load {op.op_name!r}: all {MAX_CMC_OPS} CMC command "
                f"codes are occupied"
            )
        if op.cmd in self._ops:
            raise CMCLoadError(
                f"cannot load {op.op_name!r}: command code {op.cmd} is "
                f"already registered to {self._ops[op.cmd].op_name!r}"
            )
        for other in self._ops.values():
            if other.op_name == op.op_name:
                raise CMCLoadError(
                    f"cannot load {op.op_name!r} from {op.source}: the name "
                    f"is already used by the operation at command code "
                    f"{other.cmd} (trace names must be unique)"
                )
        self._ops[op.cmd] = op
        op._owners.append(self)
        self._mutated()

    def unregister(self, cmd: int) -> CMCOperation:
        """Remove and return the operation at ``cmd``.

        Raises:
            CMCNotActiveError: if nothing is registered there.
        """
        try:
            op = self._ops.pop(cmd)
        except KeyError:
            raise CMCNotActiveError(
                f"no CMC operation registered at command code {cmd}"
            ) from None
        op._owners.remove(self)
        self._mutated()
        return op

    def get(self, cmd: int) -> CMCOperation:
        """Return the *active* operation at ``cmd``.

        Raises:
            CMCNotActiveError: if the code is unregistered or the
                operation has been deactivated — the condition under
                which ``hmcsim_process_rqst`` returns an error.
        """
        op = self._ops.get(cmd)
        if op is None:
            raise CMCNotActiveError(
                f"command code {cmd} carries no registered CMC operation"
            )
        if not op.active:
            raise CMCNotActiveError(
                f"CMC operation {op.op_name!r} (code {cmd}) is not active"
            )
        return op

    def lookup(self, cmd: int) -> Optional[CMCOperation]:
        """Return the operation at ``cmd`` (active or not), or None."""
        return self._ops.get(cmd)

    def operations(self) -> List[CMCOperation]:
        """All registered operations, ordered by command code."""
        return [self._ops[c] for c in sorted(self._ops)]

    def free_codes(self) -> Tuple[int, ...]:
        """CMC command codes still available for loading."""
        from repro.hmc.commands import CMC_CODES

        return tuple(c for c in CMC_CODES if c not in self._ops)

    # -- execution (the §IV.C.2 processing path) ----------------------------

    def execute(
        self,
        hmc: object,
        dev: int,
        quad: int,
        vault: int,
        bank: int,
        addr: int,
        length: int,
        head: int,
        tail: int,
        rqst_payload: Sequence[int],
    ) -> Tuple[CMCOperation, bytes, int]:
        """Dispatch one CMC request through its plugin's execute function.

        Mirrors the CMC branch of ``hmcsim_process_rqst``: look up the
        command, check the *active* flag, call the stored
        ``cmc_execute`` reference with the Table IV argument set, and
        validate the plugin's behaviour.

        Args:
            hmc: the simulation context (opaque to the registry, passed
                through to the plugin exactly like the C ``void *hmc``).
            dev/quad/vault/bank: coordinates where the op executes.
            addr: target base address from the request header.
            length: request length in FLITs.
            head/tail: the raw 64-bit packet head and tail.
            rqst_payload: request data payload as 64-bit words; the
                plugin receives a copy it may modify freely.

        The arguments follow Table IV's order so the per-request caller
        (``process_rqst``) passes them positionally.

        Returns:
            ``(operation, response_payload_bytes, wire_response_cmd)``.

        Raises:
            CMCNotActiveError: unregistered/inactive command code.
            CMCExecutionError: the plugin returned nonzero or resized
                its response buffer (the buffer-overflow misuse the
                paper warns about).
        """
        cmd = head & 0x7F
        entry = self._decoded.get(cmd)
        if entry is None:
            # First execute of this code in this epoch: :meth:`get`
            # raises the documented CMCNotActiveError, so only active
            # ops are ever decoded.
            op = self.get(cmd)
            reg = op.registration
            n_rsp_words = max(0, 2 * (reg.rsp_len - 1))
            entry = self._decoded[cmd] = (
                op, n_rsp_words, _word_packer(n_rsp_words), reg.wire_rsp_cmd
            )
        op, n_rsp_words, pack_words, wire_rsp_cmd = entry
        rsp_words: List[int] = [0] * n_rsp_words
        try:
            rc = op.cmc_execute(
                hmc,
                dev,
                quad,
                vault,
                bank,
                addr,
                length,
                head,
                tail,
                list(rqst_payload),
                rsp_words,
            )
        except CMCExecutionError:
            raise
        except Exception as exc:
            # Plugin isolation: a raising plugin must not kill the
            # simulation — the C contract is a nonzero return, and the
            # vault pipeline turns this exception into an RSP_ERROR
            # response exactly as it would for one.
            raise CMCExecutionError(
                f"CMC operation {op.op_name!r} (code {cmd}) raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if rc != 0:
            raise CMCExecutionError(
                f"CMC operation {op.op_name!r} (code {cmd}) returned "
                f"nonzero status {rc}"
            )
        if len(rsp_words) != n_rsp_words:
            raise CMCExecutionError(
                f"CMC operation {op.op_name!r} resized its response payload "
                f"buffer from {n_rsp_words} to {len(rsp_words)} words — "
                f"implementations must write in place within rsp_len"
            )
        try:
            # struct both packs and range-checks in one C-level pass;
            # its error is translated to the documented exception below.
            rsp_data = pack_words(*rsp_words)
        except struct.error:
            bad = [
                w
                for w in rsp_words
                if not isinstance(w, int) or not 0 <= w < (1 << 64)
            ]
            raise CMCExecutionError(
                f"CMC operation {op.op_name!r} wrote a value outside the "
                f"64-bit word range into its response payload: {bad[0]!r}"
            ) from None
        op.executions += 1
        return op, rsp_data, wire_rsp_cmd

    def str_for(self, cmd: int) -> str:
        """Resolve the trace name for a CMC command via its ``cmc_str``."""
        return self.get(cmd).cmc_str()
