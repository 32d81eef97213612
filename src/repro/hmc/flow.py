"""Link-layer flow control and retry (tokens, CRC errors, IRTRY).

The HMC specification's link layer is credit-based and self-healing:

* **Token flow control** — a transmitter may only send a packet when
  the receiver has advertised enough buffer tokens (one token = one
  FLIT).  Tokens are consumed on transmission and returned (via the
  RTC tail field) as the receiver frees buffer space.
* **Link retry** — every transmitted packet is held in a retry buffer
  until acknowledged through the returned retry pointer (RRP).  A
  receiver that detects a CRC error discards the packet and starts an
  IRTRY sequence; the transmitter replays everything from the failed
  forward retry pointer (FRP).

HMC-Sim's evaluation never exercises the retry path (its encoder
produces correct CRCs), so — like the timing and power models — the
flow-control model is **opt-in**: attach a :class:`LinkFlowModel` to
``HMCSim`` and request-side sends become token-limited, and an
:class:`ErrorModel` can inject deterministic CRC corruption whose
packets are dropped at the crossbar, negatively acknowledged, and
replayed from the retry buffer after the configured retry latency.
With no model attached the datapath is byte-identical to the baseline
(the paper's "No Simulation Perturbation" requirement).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.faults.plan import splitmix64
from repro.hmc.components import LinkFlow, register_component

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hmc.config import HMCConfig

__all__ = ["ErrorModel", "LinkFlowModel", "LinkFlowState", "RetryEvent"]

_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class ErrorModel:
    """Deterministic CRC-corruption injector.

    Attributes:
        flit_error_rate: probability that any single transmitted FLIT
            is corrupted (each packet draws once per FLIT).
        seed: RNG seed; identical seeds reproduce identical error
            sequences, keeping simulations replayable.
    """

    flit_error_rate: float = 0.0
    seed: int = 0xC0FFEE

    def corrupts(self, sequence: int, flits: int) -> bool:
        """Deterministically decide whether transmission ``sequence``
        (the link's running packet counter) suffers a CRC error."""
        if self.flit_error_rate <= 0.0:
            return False
        h = splitmix64(self.seed ^ (sequence * 0x9E3779B97F4A7C15 & _M64))
        # One draw per FLIT, folded into a single per-packet probability.
        p_ok = (1.0 - self.flit_error_rate) ** flits
        return (h / float(1 << 64)) >= p_ok


@dataclass
class RetryEvent:
    """One link-retry occurrence, for statistics and tracing."""

    cycle: int
    link: int
    tag: int
    frp: int


@dataclass
class LinkFlowState:
    """Per-link transmitter state: tokens and the retry buffer."""

    tokens: int
    #: Sent-but-unacknowledged packets: seq -> (flits, packet).
    retry_buffer: Dict[int, Tuple[int, object]] = field(default_factory=dict)
    next_seq: int = 0
    #: Packets scheduled for replay: (ready_cycle, packet).
    replay_queue: List[Tuple[int, object]] = field(default_factory=list)
    token_stalls: int = 0
    retries: int = 0
    sent_packets: int = 0


class LinkFlowModel(LinkFlow):
    """Token + retry behaviour for every request link of a context.

    Args:
        tokens_per_link: initial token credit per link, in FLITs
            (the receiver's input-buffer depth).
        retry_latency: cycles between a CRC drop being detected and
            the replayed packet re-entering the link.
        errors: optional CRC-corruption injector.
    """

    def __init__(
        self,
        tokens_per_link: int = 64,
        retry_latency: int = 8,
        errors: Optional[ErrorModel] = None,
    ):
        if tokens_per_link < 17:
            # A 256-byte write is 17 FLITs; fewer tokens would deadlock.
            raise ValueError("tokens_per_link must be >= 17 (max packet size)")
        if retry_latency < 1:
            raise ValueError("retry_latency must be >= 1")
        self.tokens_per_link = tokens_per_link
        self.retry_latency = retry_latency
        self.errors = errors
        self._links: Dict[Tuple[int, int], LinkFlowState] = {}
        self.retry_events: List[RetryEvent] = []
        # dev -> links with a nonempty replay queue.  Maintained by
        # every replay enqueue/drain so the cycle engine's active-set
        # scheduler can ask "does this device owe replays?" in O(1)
        # instead of scanning every link state.
        self._replay_links: Dict[int, Set[int]] = {}

    # -- checkpointing ---------------------------------------------------------

    #: Per-link fields a checkpoint carries; the retry buffer and the
    #: replay queue are empty whenever the devices are quiesced.
    _LINK_FIELDS = ("tokens", "next_seq", "token_stalls", "retries", "sent_packets")

    def params(self) -> Dict[str, object]:
        return {
            "tokens_per_link": self.tokens_per_link,
            "retry_latency": self.retry_latency,
            "errors": None if self.errors is None else asdict(self.errors),
        }

    def snapshot_state(self) -> Dict[str, object]:
        doc: Dict[str, object] = {}
        if self._links:
            doc["links"] = [
                [dev, link, *(getattr(st, f) for f in self._LINK_FIELDS)]
                for (dev, link), st in sorted(self._links.items())
            ]
        if self.retry_events:
            doc["retry_events"] = [
                [e.cycle, e.link, e.tag, e.frp] for e in self.retry_events
            ]
        return doc

    def restore_state(self, doc: Dict[str, object]) -> None:
        self._links = {}
        for dev, link, *values in doc.get("links", ()):
            st = self.state(dev, link)
            for name, value in zip(self._LINK_FIELDS, values):
                setattr(st, name, value)
        self.retry_events = [RetryEvent(*e) for e in doc.get("retry_events", ())]

    def state(self, dev: int, link: int) -> LinkFlowState:
        """The transmitter state for one (device, link)."""
        key = (dev, link)
        st = self._links.get(key)
        if st is None:
            st = LinkFlowState(tokens=self.tokens_per_link)
            self._links[key] = st
        return st

    # -- transmit side ---------------------------------------------------------

    def try_acquire(self, dev: int, link: int, flits: int) -> bool:
        """Consume ``flits`` tokens; False (a token stall) if short."""
        st = self.state(dev, link)
        if st.tokens < flits:
            st.token_stalls += 1
            return False
        st.tokens -= flits
        return True

    def refund(self, dev: int, link: int, flits: int) -> None:
        """Return tokens for a packet that was never transmitted
        (e.g. the crossbar queue rejected it after credit was granted)."""
        st = self.state(dev, link)
        st.tokens = min(self.tokens_per_link, st.tokens + flits)

    def on_transmit(self, dev: int, link: int, flits: int, packet: object) -> int:
        """Record a transmitted packet in the retry buffer; returns its
        sequence number (the FRP the receiver will see)."""
        st = self.state(dev, link)
        seq = st.next_seq
        st.next_seq += 1
        st.retry_buffer[seq] = (flits, packet)
        st.sent_packets += 1
        return seq

    def transmission_corrupted(self, dev: int, link: int, seq: int) -> bool:
        """Ask the error model whether transmission ``seq`` was hit."""
        if self.errors is None:
            return False
        flits, _ = self.state(dev, link).retry_buffer.get(seq, (1, None))
        return self.errors.corrupts((dev << 32) | (link << 24) | seq, flits)

    # -- receive side ------------------------------------------------------------

    def acknowledge(self, dev: int, link: int, seq: int) -> None:
        """The receiver consumed packet ``seq``: release the retry slot
        and return its tokens (the RRP/RTC return path)."""
        st = self.state(dev, link)
        entry = st.retry_buffer.pop(seq, None)
        if entry is not None:
            st.tokens = min(self.tokens_per_link, st.tokens + entry[0])

    def negative_acknowledge(
        self, dev: int, link: int, seq: int, cycle: int, tag: int
    ) -> None:
        """The receiver dropped packet ``seq`` on a CRC error: schedule
        a replay after the retry latency (the IRTRY sequence)."""
        st = self.state(dev, link)
        entry = st.retry_buffer.pop(seq, None)
        if entry is None:
            return
        flits, packet = entry
        st.tokens = min(self.tokens_per_link, st.tokens + flits)
        st.retries += 1
        st.replay_queue.append((cycle + self.retry_latency, packet))
        self._replay_links.setdefault(dev, set()).add(link)
        self.retry_events.append(RetryEvent(cycle=cycle, link=link, tag=tag, frp=seq))

    def schedule_replay(
        self, dev: int, link: int, ready_cycle: int, packet: object
    ) -> None:
        """Re-queue a replay that could not re-enter the link this cycle
        (no tokens, or the crossbar queue was full)."""
        st = self.state(dev, link)
        st.replay_queue.append((ready_cycle, packet))
        self._replay_links.setdefault(dev, set()).add(link)

    def due_replays(self, dev: int, link: int, cycle: int) -> List[object]:
        """Packets whose retry latency has elapsed, removed from the queue."""
        st = self.state(dev, link)
        if not st.replay_queue:
            return []
        ready = [p for c, p in st.replay_queue if c <= cycle]
        st.replay_queue = [(c, p) for c, p in st.replay_queue if c > cycle]
        if not st.replay_queue:
            links = self._replay_links.get(dev)
            if links is not None:
                links.discard(link)
                if not links:
                    del self._replay_links[dev]
        return ready

    def replay_links(self, dev: int) -> Set[int]:
        """Links of ``dev`` that currently hold scheduled replays."""
        return self._replay_links.get(dev) or set()

    def has_pending_replays(self) -> bool:
        """True when any link of any device holds a scheduled replay.

        The public form of the drain-idle check — callers must not
        reach into the per-link state dictionary.
        """
        return bool(self._replay_links)

    # -- statistics ------------------------------------------------------------

    def total_retries(self) -> int:
        """Retries across every link."""
        return sum(st.retries for st in self._links.values())

    def outstanding(self, dev: int, link: int) -> int:
        """Unacknowledged packets currently held in a retry buffer."""
        return len(self.state(dev, link).retry_buffer)


@register_component("link_flow", "tokens")
def _tokens_flow(config: "HMCConfig") -> LinkFlowModel:
    """Factory for the token + retry model with default credit/latency.

    Registered under seam key ``tokens``; the ``none`` key (the
    baseline's flow-free datapath) is registered in
    :mod:`repro.hmc.composition` and yields ``None``.
    """
    return LinkFlowModel()
