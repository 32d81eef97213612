"""Differential runner: one trace through the engine and the oracle.

The engine side drives :class:`~repro.hmc.sim.HMCSim` exclusively
through its public host API (``send``/``recv``/``clock``/``drain``/
``mem_read``/``jtag_reg_read``); the oracle side replays the same
request list through :class:`~repro.oracle.model.Oracle`.  Afterwards
the two are diffed on four axes:

* per-request responses (presence, command code, payload, ERRSTAT,
  DINV), matched by ``(cub, tag)``;
* unexpected or duplicate responses;
* the final memory image over the trace's declared check ranges;
* the final register file (every implemented register, via JTAG).

Requests are injected strictly in trace order: request *i+1* is not
offered to the device until request *i* has been accepted.  A send
stall clocks the device and retries — the normal ``hmcsim_send``
contract.

Acceptance is not completion, and the engine orders only requests that
share a vault queue — so before sending a request whose footprint
overlaps an in-flight request (with at least one of the pair mutating
state), the runner drains the device to quiescence.  That fences
exactly the architecturally-unordered races; all other traffic stays
concurrent, which is where the queueing, crossbar, and stall-path bugs
live.

**Survivable faults.**  When the trace carries a fault plan the runner
pairs itself with a :class:`~repro.faults.watchdog.TagWatchdog`, which
makes the response-destroying fault kinds (``xbar_drop``,
``xbar_dup``, ``link_crc``) differentially testable instead of fatal:

* expectations are computed *inline* at send time, one queue per
  request, so a retransmitted request can be re-executed in the oracle
  at the position the engine re-executes it (at-least-once semantics:
  ``xbar_drop`` destroys the response *after* vault execution, so a
  retransmit runs the operation again on both sides);
* lost tags are resolved at the fences (:func:`settle` below): the
  runner drains to quiescence, fast-forwards to the watchdog deadline
  (O(1) on an idle context), retransmits, and repeats — so every
  retransmission happens before any *conflicting* later request is
  sent, which is exactly the condition under which the oracle's
  re-execution order is sound (non-conflicting traffic commutes);
* a duplicated response (or a late one racing its own retransmission)
  is suppressed when it matches the tag's last settled answer;
* watchdog exhaustion degrades to a recorded ``DiffResult.skipped``
  instead of a crash, so one hopeless seed cannot abort a farm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Tuple

from repro.errors import HMCStatus, SimDeadlockError, TagError
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import TagWatchdog
from repro.hmc.commands import CommandKind, command_for_code, hmc_rqst_t
from repro.hmc.packet import RequestPacket
from repro.hmc.registers import HMC_REG
from repro.hmc.sim import HMCSim
from repro.oracle.model import Expectation, Oracle
from repro.oracle.trafficgen import Trace, TraceRequest

__all__ = ["Mismatch", "DiffResult", "build_packet", "run_trace"]

#: Watchdog deadline for faulty differential runs: far beyond any
#: legitimate response latency (vault stalls included), so an expired
#: tag at a quiescent fence always means the response was destroyed.
DIFF_WATCHDOG_TIMEOUT = 4096


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between the engine and the oracle."""

    #: Index of the offending request in the trace, or None for global
    #: findings (memory/register divergence, deadlock).
    index: Optional[int]
    kind: str
    expected: str
    actual: str
    request: str = ""

    def describe(self) -> str:
        where = f"request #{self.index} ({self.request})" if self.index is not None else "trace"
        return (
            f"{self.kind} @ {where}\n"
            f"    expected: {self.expected}\n"
            f"    actual:   {self.actual}"
        )


@dataclass
class DiffResult:
    """Outcome of one differential run."""

    trace: Trace
    mismatches: List[Mismatch] = field(default_factory=list)
    cycles: int = 0
    responses: int = 0
    #: Fault events the engine injected during the run, by fault name
    #: (empty when the trace carries no FaultPlan).
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Watchdog timeouts / retransmissions performed (0 without faults).
    timeouts: int = 0
    retransmits: int = 0
    #: Responses tolerated as benign duplicates of a settled answer.
    duplicates_suppressed: int = 0
    #: Set when the run was abandoned without a verdict (watchdog
    #: exhaustion): the reason string.  A skipped run is neither a pass
    #: nor a divergence; farms record it and move on.
    skipped: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches


class _SkipTrace(Exception):
    """Internal: abandon the diff without a verdict (records ``skipped``)."""


def build_packet(req: TraceRequest) -> RequestPacket:
    """Materialize a trace request as a wire packet.

    CMC payloads in a trace are always stored at full registered
    length, so the FLIT count falls out of the data size; spec commands
    take their length from the command table.
    """
    rqst = hmc_rqst_t(req.cmd)
    info = command_for_code(req.cmd)
    flits = 1 + len(req.data) // 16 if info.kind is CommandKind.CMC else None
    return RequestPacket.build(
        rqst, req.addr, req.tag, data=req.data, rqst_flits=flits
    )


def run_trace(
    trace: Trace,
    *,
    max_mismatches: int = 64,
    max_cycles: int = 500_000,
    config_overrides: Optional[Dict[str, object]] = None,
) -> DiffResult:
    """Execute ``trace`` on both sides and diff the outcomes.

    ``config_overrides`` replaces HMCConfig fields on the *simulator*
    side only (e.g. ``{"xbar": "vector"}``) — the oracle always models
    the functional contract, so fuzzing an alternate composition
    against the unchanged oracle is exactly the engine-equivalence
    burn-down the vector datapath is pinned by.
    """
    config = trace.config()
    if config_overrides:
        config = dc_replace(config, **config_overrides)
    if any(
        spec.startswith("link_crc") for spec in trace.fault_specs
    ) and config.link_flow != "tokens":
        # The CRC injector perturbs the link ErrorModel, which only
        # exists under the token-flow link: upgrade the engine config.
        # Purely a link-latency change — functional outcomes (what the
        # oracle models) are untouched.
        config = dc_replace(config, link_flow="tokens")
    sim = HMCSim(config)
    oracle = Oracle(config)
    for module in trace.cmc_modules:
        sim.load_cmc(module)
        oracle.load_cmc(module)
    if trace.fault_specs:
        sim.attach_faults(
            FaultPlan.parse(trace.fault_specs, seed=trace.fault_seed)
        )
    for addr, data in trace.preloads:
        sim.mem_write(addr, data)
        oracle.mem_write(addr, data)

    result = DiffResult(trace=trace)
    packets = [build_packet(r) for r in trace.requests]
    # The watchdog makes response-destroying faults survivable; without
    # a plan nothing can destroy a response, so it stays off the path.
    wd = (
        TagWatchdog(timeout=DIFF_WATCHDOG_TIMEOUT)
        if sim.faults is not None
        else None
    )

    # (cub << 11) | tag — the same packed key HMCSim uses internally.
    index_of_key: Dict[int, int] = {}
    # Per-request FIFO of expectations still awaiting a response: one
    # entry per oracle execution (a retransmitted request is executed —
    # and therefore expected — more than once).
    exp_queue: Dict[int, List[Expectation]] = {}
    # Last matched response per request, for duplicate suppression.
    settled: Dict[int, object] = {}
    # In-flight state footprints: key → (lo, hi, mutates).  Returning
    # requests retire when their response arrives; posted ones only at
    # the next quiesce, since nothing announces their completion.
    inflight: Dict[int, tuple] = {}
    num_links = config.num_links
    start_cycle = sim.cycle

    def note(index: Optional[int], kind: str, expected: str, actual_s: str) -> None:
        if len(result.mismatches) < max_mismatches:
            req_s = trace.requests[index].describe() if index is not None else ""
            result.mismatches.append(
                Mismatch(index=index, kind=kind, expected=expected,
                         actual=actual_s, request=req_s)
            )

    def fmt_rsp(rsp: object) -> str:
        return (
            f"cmd={rsp.cmd:#04x} tag={rsp.tag} errstat={rsp.errstat:#04x} "
            f"dinv={rsp.dinv} data={rsp.data.hex() or '-'}"
        )

    def same(rsp: object, other: object) -> bool:
        return (
            rsp.cmd == other.cmd
            and rsp.errstat == other.errstat
            and rsp.data == other.data
            and rsp.dinv == other.dinv
        )

    def check(idx: int, exp: Expectation, rsp: object) -> None:
        got = fmt_rsp(rsp)
        if rsp.cmd != exp.rsp_cmd:
            note(idx, "rsp_cmd", exp.describe(), got)
        elif rsp.errstat != exp.errstat:
            note(idx, "rsp_errstat", exp.describe(), got)
        elif rsp.data != exp.data:
            note(idx, "rsp_data", exp.describe(), got)
        elif rsp.dinv != exp.dinv:
            note(idx, "rsp_dinv", exp.describe(), got)

    def poll() -> None:
        drained = False
        while not drained:
            drained = True
            for link in range(num_links):
                rsp = sim.recv(link=link)
                if rsp is None:
                    continue
                drained = False
                result.responses += 1
                key = (rsp.cub << 11) | rsp.tag
                idx = index_of_key.get(key)
                queue = exp_queue.get(idx) if idx is not None else None
                if queue:
                    exp = queue.pop(0)
                    check(idx, exp, rsp)
                    settled[idx] = rsp
                    inflight.pop(idx, None)
                    if wd is not None:
                        wd.disarm(rsp.tag)
                    continue
                prev = settled.get(idx) if idx is not None else None
                if prev is not None and same(rsp, prev):
                    # A duplication fault's second copy, or a late
                    # response racing its own retransmission.
                    result.duplicates_suppressed += 1
                    continue
                note(
                    idx,
                    "unexpected_response",
                    "no (further) response for this tag",
                    fmt_rsp(rsp),
                )

    def expire(entry) -> None:
        """One watchdog expiry at a quiescent fence: re-execute on both
        sides (at-least-once) or — budget spent — skip the trace."""
        key = (entry.packet.cub << 11) | entry.tag
        idx = index_of_key[key]
        if wd.exhausted(entry):
            kind = None
            if sim.faults is not None:
                kind = sim.faults.lost_tags.get((entry.packet.cub, entry.tag))
            raise _SkipTrace(
                f"tag {entry.tag} (request #{idx}) unanswered after "
                f"{entry.attempts} retransmission(s)"
                + (f", last lost to fault {kind!r}" if kind else "")
            )
        lost = (
            sim.faults is not None
            and (entry.packet.cub, entry.tag) in sim.faults.lost_tags
        )
        sim.abandon_tag(entry.packet.cub, entry.tag)
        queue = exp_queue.get(idx)
        if lost and queue:
            # The fault destroyed that execution's response *after* the
            # vault ran it: its expectation can never be answered.
            queue.pop(0)
        # The engine will execute the retransmitted request again; the
        # oracle must too (the fences guarantee nothing conflicting was
        # sent since, so this position in the global order is exact).
        exp = oracle.execute(packets[idx], link=trace.requests[idx].link)
        if exp.has_rsp:
            exp_queue.setdefault(idx, []).append(exp)
        wd.note_retransmit()
        send(idx, arm=True)

    def send(idx: int, *, arm: bool) -> None:
        pkt = packets[idx]
        req = trace.requests[idx]
        while sim.send(pkt, link=req.link) is HMCStatus.STALL:
            sim.clock()
            poll()
            if sim.cycle - start_cycle > max_cycles:
                raise _SendTimeout(idx)
        if arm and wd is not None and sim.expects_response(pkt):
            wd.arm(
                pkt.tag, pkt, dev=pkt.cub, link=req.link, cycle=sim.cycle
            )

    def settle(idx: Optional[int]) -> None:
        """Drain to quiescence *and* resolve every armed tag.

        The conflict fence and the end-of-trace barrier.  On an idle
        context an armed tag's response has been destroyed (delivery
        would have disarmed it), so the loop fast-forwards to the next
        deadline (O(1) when quiescent), retransmits, and drains again —
        until nothing is armed or a tag exhausts its budget.
        """
        while True:
            try:
                sim.drain(max_cycles=max_cycles)
            except SimDeadlockError as exc:
                note(
                    idx,
                    "deadlock",
                    "fence drains to idle"
                    if idx is not None
                    else "trace drains to idle",
                    str(exc),
                )
                raise _Abort()
            poll()
            if wd is None or not len(wd):
                inflight.clear()
                return
            expired = wd.poll(sim.cycle)
            if not expired:
                deadline = wd.next_deadline()
                assert deadline is not None
                sim.clock(deadline - sim.cycle)
                expired = wd.poll(sim.cycle)
            for entry in expired:
                expire(entry)

    def conflicts(req: TraceRequest) -> bool:
        if not req.footprint:
            return False
        lo, hi = req.addr, req.addr + req.footprint
        return any(
            lo < f_hi and hi > f_lo and (req.mutates or f_mut)
            for f_lo, f_hi, f_mut in inflight.values()
        )

    class _Abort(Exception):
        pass

    class _SendTimeout(Exception):
        pass

    aborted = False
    try:
        for i, (req, pkt) in enumerate(zip(trace.requests, packets)):
            key = (pkt.cub << 11) | pkt.tag
            index_of_key[key] = i
            if conflicts(req):
                settle(i)
            if req.footprint:
                inflight[i] = (req.addr, req.addr + req.footprint, req.mutates)
            # The oracle executes at send time — the same global order
            # as the up-front batch, but extendable when a retransmit
            # re-executes a request later in the order.
            exp = oracle.execute(pkt, link=req.link)
            if exp.has_rsp:
                exp_queue.setdefault(i, []).append(exp)
            try:
                send(i, arm=True)
            except TagError as exc:
                note(i, "tag_error", "send accepted", str(exc))
                aborted = True
                break
        if not aborted:
            settle(None)
    except _Abort:
        aborted = True
    except _SendTimeout as exc:
        note(
            exc.args[0],
            "send_timeout",
            f"request accepted within {max_cycles} cycles",
            f"still stalled at cycle {sim.cycle}",
        )
        aborted = True
    except _SkipTrace as exc:
        result.skipped = str(exc)

    poll()
    result.cycles = sim.cycle - start_cycle
    if wd is not None:
        result.timeouts = wd.timeouts
        result.retransmits = wd.retransmits
    if sim.faults is not None:
        result.fault_counts = dict(sim.faults.counters())
    if result.skipped is not None:
        # No verdict: the final state check would charge the engine for
        # an operation whose completion was never confirmed.
        return result

    # Responses still owed at the end of the run.
    if not aborted:
        for i, queue in sorted(exp_queue.items()):
            for exp in queue:
                note(i, "missing_response", exp.describe(), "no response received")

    # Memory-image diff over the trace's declared windows.
    for base, length in trace.check_ranges:
        engine_bytes = sim.mem_read(base, length)
        oracle_bytes = oracle.mem_read(base, length)
        if engine_bytes == oracle_bytes:
            continue
        off = next(
            k for k in range(length) if engine_bytes[k] != oracle_bytes[k]
        )
        lo = max(0, off - 4)
        note(
            None,
            "memory",
            f"[{base + off:#x}] …{oracle_bytes[lo:off + 12].hex()}…",
            f"[{base + off:#x}] …{engine_bytes[lo:off + 12].hex()}…",
        )

    # Register-file diff through the public JTAG path.
    for name, reg in sorted(HMC_REG.items()):
        engine_val = sim.jtag_reg_read(0, reg)
        oracle_val = oracle.registers(0).read(reg)
        if engine_val != oracle_val:
            note(
                None,
                "register",
                f"{name}={oracle_val:#x}",
                f"{name}={engine_val:#x}",
            )

    return result
