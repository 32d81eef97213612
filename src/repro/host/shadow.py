"""Online sampled oracle: in-run shadow execution for the host engine.

PR 5's differential oracle only validates the datapath in offline
batch runs; this module makes the same functional reference a
*resident* property of any host-engine workload.  With
``HostEngine(oracle_sample=N)`` the engine samples roughly one in
``N`` response-expecting requests and shadow-executes it against
:class:`repro.oracle.model.Oracle`, raising
:class:`~repro.errors.OracleDivergenceError` when the device's answer
disagrees with the spec model.

Sampling protocol (the *hold window*):

1. when the sampling counter elects a request, its thread is *held* —
   the packet stays pending and nothing else injects;
2. the engine keeps draining until the context is quiescent (no thread
   WAITING, ``sim.idle()``) — at that point the device memory over the
   request's footprint is a stable, well-defined value;
3. the oracle image is synchronized from the engine over exactly that
   footprint (memory via ``sim.mem_read``, the register file via JTAG
   for MODE traffic) and the request is shadow-executed to an
   :class:`~repro.oracle.model.Expectation`;
4. the sampled packet is then sent *alone*; its response is compared
   field-for-field (command, ERRSTAT, payload, DINV) before the
   thread resumes and normal injection restarts.

Because the sample executes against a quiescent device, the vector
engine's dynamic gate is untouched: the sampled request simply flows
through an empty pipeline (whatever engine is composed), so sampling
perturbs only the sampled request's own issue window — not the
batching of the surrounding run.  The cost is a pipeline drain per
sample, which is why the default is sampled (1-in-N), not exhaustive.

The shadow oracle is incompatible with fault injection: a fault plan
deliberately makes the device diverge from the functional contract
(dropped responses, flipped bits), which is the chaos suite's domain —
the constructor rejects a context with ``sim.faults`` attached.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Any, Dict, Optional

from repro.errors import HMCSimError, OracleDivergenceError
from repro.hmc.amo import is_amo
from repro.hmc.commands import CommandKind, command_for_code
from repro.hmc.packet import RequestPacket
from repro.hmc.sim import collect_deadlock_dump

# _AMO_FOOTPRINT is the oracle's own read-footprint table; the shadow
# checker must sync exactly the bytes the oracle will read (syncing a
# rounded-up window could cross the capacity boundary and fabricate a
# divergence on a legal top-of-cube atomic).
from repro.oracle.model import _AMO_FOOTPRINT, Expectation, Oracle

__all__ = ["ShadowOracle"]

#: Sentinel distinguishing "not classified yet" from "not sampleable".
_UNSET = object()


class ShadowOracle:
    """Sampling state machine for one host engine's online oracle.

    The engine owns the protocol (when to stop injecting, when the
    context is quiescent, when the sampled response arrives); this
    object owns the policy (which requests are sampleable, what state
    to synchronize, what the device must answer).

    States: *counting* (``held is None``) → *draining* (``held`` set,
    ``expect`` None) → *armed* (``expect`` computed, sampled packet in
    flight) → back to counting after :meth:`verify`.
    """

    def __init__(self, sim: Any, sample: int):
        if sample < 1:
            raise HMCSimError(
                f"oracle_sample must be >= 1 (1-in-N sampling), got {sample}"
            )
        if sim.faults is not None:
            raise HMCSimError(
                "the online oracle checks the fault-free functional contract; "
                "a context with a fault plan attached diverges by design — "
                "use the chaos suite or the differential fuzzer's faulty "
                "profile instead"
            )
        self.sim = sim
        self.sample = sample
        self.oracle = Oracle(sim.config)
        #: Completed shadow comparisons (surfaced as
        #: ``EngineResult.oracle_checks``).
        self.checks = 0
        #: The thread whose pending request is being sampled.
        self.held: Optional[Any] = None
        #: The oracle's verdict, once the context quiesced.
        self.expect: Optional[Expectation] = None
        self._pkt: Optional[RequestPacket] = None
        self._seen = 0
        self._mode: Dict[int, Any] = {}

    # -- run lifecycle -----------------------------------------------------------

    def begin_run(self) -> None:
        """Engine run entry: mirror the context's CMC registry and reset
        per-run sampling state.

        CMC plugins are loaded into the *context* (often after the
        engine is constructed), so the mirror happens at run entry.
        Each op is copied with ``executions=0`` — shadow executions
        must not pollute the context registry's usage statistics.
        """
        for op in self.sim.cmc.operations():
            if self.oracle.cmc.lookup(op.cmd) is None:
                self.oracle.cmc.register(dc_replace(op, executions=0))
                self._mode.pop(op.cmd, None)
        self.held = None
        self.expect = None
        self._pkt = None
        self._seen = 0
        self.checks = 0

    # -- sampling policy ---------------------------------------------------------

    def _classify(self, cmd: int) -> Optional[str]:
        """Sampleability class of a command code, memoized.

        ``None`` means never sampled: flow packets and posted requests
        produce no response to compare; unregistered CMC codes, and ops
        that declare no ``FOOTPRINT`` (their target depends on memory
        contents, e.g. ``hmc_list_push``), cannot be synchronized.
        """
        mode = self._mode.get(cmd, _UNSET)
        if mode is not _UNSET:
            return mode
        info = command_for_code(cmd)
        mode = None
        if info.kind is CommandKind.CMC:
            op = self.oracle.cmc.lookup(cmd)
            if (
                op is not None
                and not op.registration.posted
                and op.registration.footprint is not None
            ):
                mode = "cmc"
        elif info.kind is CommandKind.FLOW or info.posted:
            mode = None
        elif info.kind is CommandKind.READ:
            mode = "read"
        elif info.kind is CommandKind.WRITE:
            mode = "write"
        elif info.kind is CommandKind.MODE:
            mode = "mode"
        elif is_amo(cmd):
            mode = "amo"
        self._mode[cmd] = mode
        return mode

    def note_send(self, pkt: RequestPacket) -> None:
        """Count one accepted response-expecting send toward the next
        sample (no-op while a hold window is open)."""
        if self.held is None and self._classify(pkt.cmd) is not None:
            self._seen += 1

    def maybe_hold(self, thread: Any) -> bool:
        """Decide whether this injection attempt opens a hold window.

        Called by the engine before sending when no window is open;
        ``True`` parks the thread (its packet stays pending and is sent
        by the release path once the context quiesces).
        """
        if self._seen + 1 < self.sample:
            return False
        pkt = thread.pending
        if self._classify(pkt.cmd) is None:
            return False
        self._seen = 0
        self.held = thread
        self.expect = None
        self._pkt = pkt
        return True

    # -- the shadow execution ----------------------------------------------------

    def prepare(self) -> None:
        """The context is quiescent: synchronize the oracle over the
        sampled request's footprint and compute the expectation."""
        thread = self.held
        assert thread is not None and self._pkt is not None
        pkt = self._pkt
        dev = thread.ctx.cub
        self._sync(pkt, self._classify(pkt.cmd), dev)
        self.expect = self.oracle.execute(pkt, dev=dev, link=thread.ctx.link)

    def _sync(self, pkt: RequestPacket, mode: Optional[str], dev: int) -> None:
        """Copy exactly the engine state the oracle will read."""
        if mode == "mode":
            info = command_for_code(pkt.cmd)
            if info.rqst_name != "MD_RD":
                return  # MD_WR reads nothing
            try:
                value = self.sim.jtag_reg_read(dev, pkt.addr)
            except HMCSimError:
                return  # unimplemented index: both sides answer RSP_ERROR
            try:
                self.oracle.registers(dev).write(pkt.addr, value)
            except HMCSimError:
                pass  # read-only word: the construction value matches
            return
        if mode == "read":
            nbytes = command_for_code(pkt.cmd).rsp_data_bytes or 0
        elif mode == "write":
            return  # writes read nothing; the payload rides the packet
        elif mode == "amo":
            nbytes = _AMO_FOOTPRINT.get(pkt.cmd, 16)
        else:  # "cmc" — _classify guarantees a declared footprint
            nbytes = self.oracle.cmc.lookup(pkt.cmd).registration.footprint
        if nbytes <= 0:
            return
        if pkt.addr < 0 or pkt.addr + nbytes > self.oracle.capacity:
            return  # out of capacity: both sides answer ERRSTAT_ADDRESS
        self.oracle.mem_write(
            pkt.addr, self.sim.mem_read(pkt.addr, nbytes, dev=dev), dev=dev
        )

    def verify(self, rsp: Any) -> None:
        """Compare the sampled response against the expectation; close
        the hold window.

        Raises:
            OracleDivergenceError: when any response field disagrees.
                The dump's extra section names the sampled request, the
                expectation, and the actual response.
        """
        exp = self.expect
        pkt = self._pkt
        assert exp is not None and pkt is not None
        self.held = None
        self.expect = None
        self._pkt = None
        self.checks += 1
        if (
            rsp.cmd == exp.rsp_cmd
            and rsp.errstat == exp.errstat
            and rsp.data == exp.data
            and rsp.dinv == exp.dinv
        ):
            return
        got = (
            f"cmd={rsp.cmd:#04x} tag={rsp.tag} errstat={rsp.errstat:#04x} "
            f"dinv={rsp.dinv} data={rsp.data.hex() or '-'}"
        )
        sampled = (
            f"cmd={pkt.cmd:#04x} addr={pkt.addr:#x} tag={pkt.tag} "
            f"data[{len(pkt.data)}]"
        )
        raise OracleDivergenceError(
            f"online oracle divergence at cycle {self.sim.cycle}: sampled "
            f"request {sampled} answered [{got}], expected [{exp.describe()}]",
            dump=collect_deadlock_dump(
                self.sim,
                extra={
                    "sampled request": sampled,
                    "expected": exp.describe(),
                    "actual": got,
                    "oracle checks so far": str(self.checks),
                },
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "counting"
            if self.held is None
            else ("armed" if self.expect is not None else "draining")
        )
        return (
            f"ShadowOracle(sample={self.sample}, checks={self.checks}, "
            f"state={state})"
        )
