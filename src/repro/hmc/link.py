"""Host link model.

Each device exposes 4 or 8 full-duplex links.  In the simulator a link
is the host attach point: requests enter the device through a link's
crossbar request queue (see :mod:`repro.hmc.xbar`) and completed
responses are *retired* to the link's retire buffer, where
``hmcsim_recv`` finds them.  Links are physically attached to a
quadrant.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.hmc.components import Stateful
from repro.hmc.packet import ResponsePacket

__all__ = ["Link"]


class Link(Stateful):
    """One host link of one device."""

    __slots__ = ("link_id", "quad", "retired", "rqsts_in", "rsps_out", "flits_in", "flits_out")
    STATE = {"rqsts_in": 0, "rsps_out": 0, "flits_in": 0, "flits_out": 0}

    def __init__(self, link_id: int, quad: int):
        self.link_id = link_id
        self.quad = quad
        #: Responses ready for the host (drained by ``recv``).
        self.retired: Deque[ResponsePacket] = deque()
        self.rqsts_in = 0
        self.rsps_out = 0
        self.flits_in = 0
        self.flits_out = 0

    def retire(self, rsp: ResponsePacket) -> None:
        """Make a response visible to ``recv`` on this link."""
        self.retired.append(rsp)
        self.rsps_out += 1
        self.flits_out += 1 + len(rsp.data) // 16  # rsp.lng, inlined

    def recv(self) -> Optional[ResponsePacket]:
        """Pop the oldest retired response, or None."""
        return self.retired.popleft() if self.retired else None

    def pending_responses(self) -> int:
        """Responses retired but not yet collected by the host."""
        return len(self.retired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.link_id}, quad={self.quad}, retired={len(self.retired)})"
