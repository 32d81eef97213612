"""Functional reference model of the complete Gen2 command set.

The oracle generalizes :func:`repro.hmc.amo.reference_amo` from one
atomic to the whole device: given a request packet it computes the
expected final memory image, response payload, and ERRSTAT — without
any cycle, queue, crossbar, or link machinery.  It is a *spec model*:
each command is implemented directly from the packet-format and
Table I semantics, so the cycle engine and the oracle can only agree
if both are right.

Import discipline (enforced by the oracle-purity lint): this module
may use the spec-pinned *data* layers — commands, packets, registers,
the AMO handler table, and the CMC registry — but never the cycle
engine (``repro.hmc.device`` / ``vault`` / ``xbar`` / ``link``).  The
ERRSTAT codes are therefore redefined here rather than imported from
``repro.hmc.vault``; ``tests/oracle/test_model.py`` pins the two sets
equal.

Ordering contract: the oracle executes requests in a single global
order.  The device only guarantees per-link FIFO (one link's requests
reach a vault in order; cross-link interleaving at a shared address is
timing-dependent), so a differential trace must confine overlapping
request footprints to a single link — the traffic generator's
address-cluster discipline (see ``docs/CORRECTNESS.md``).  Under that
discipline every legal engine interleaving of a trace commutes, and
the oracle's global order is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from repro.core.cmc import CMCOperation, CMCRegistry
from repro.core.loader import load_cmc as _load_cmc_plugin
from repro.errors import (
    CMCExecutionError,
    CMCNotActiveError,
    HMCAddressError,
    HMCSimError,
)
from repro.hmc.addrmap import AddressMap
from repro.hmc.amo import is_amo, reference_amo
from repro.hmc.commands import CommandKind, command_for_code, hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.packet import RequestPacket, _rqst_wire
from repro.hmc.registers import RegisterFile

__all__ = [
    "Oracle",
    "Expectation",
    "ERRSTAT_GENERIC",
    "ERRSTAT_ADDRESS",
    "ERRSTAT_CMC_INACTIVE",
    "ERRSTAT_CMC_FAILED",
]

# ERRSTAT codes carried by RSP_ERROR responses.  Intentionally local
# copies (not imported from the engine) — values pinned against
# repro.hmc.vault by the oracle test suite.
ERRSTAT_GENERIC = 0x01
ERRSTAT_ADDRESS = 0x03
ERRSTAT_CMC_INACTIVE = 0x04
ERRSTAT_CMC_FAILED = 0x05

_PAGE_SHIFT = 12
_PAGE_BYTES = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_BYTES - 1

# Bytes of memory each atomic reads/writes at its target address.  The
# 8-byte group operates on a single 64-bit word (Table I); everything
# else touches a full 16-byte DRAM access.
_AMO_FOOTPRINT: Dict[int, int] = {
    int(name): 8
    for name in (
        hmc_rqst_t.INC8,
        hmc_rqst_t.P_INC8,
        hmc_rqst_t.BWR,
        hmc_rqst_t.P_BWR,
        hmc_rqst_t.BWR8R,
        hmc_rqst_t.CASEQ8,
        hmc_rqst_t.CASGT8,
        hmc_rqst_t.CASLT8,
        hmc_rqst_t.EQ8,
    )
}


@dataclass(frozen=True)
class Expectation:
    """What the device must do with one request.

    ``has_rsp`` is False for posted requests (including posted requests
    whose execution failed — errors on posted traffic are counted and
    dropped, never answered).  The remaining fields describe the
    response packet the host must eventually receive.
    """

    has_rsp: bool
    tag: int = 0
    cub: int = 0
    rsp_cmd: int = 0
    data: bytes = b""
    errstat: int = 0
    dinv: int = 0

    def describe(self) -> str:
        """One-line summary for mismatch reports."""
        if not self.has_rsp:
            return "no response (posted)"
        return (
            f"cmd={self.rsp_cmd:#04x} tag={self.tag} errstat={self.errstat:#04x} "
            f"dinv={self.dinv} data={self.data.hex() or '-'}"
        )


class _SparseImage:
    """A bounds-checked, zero-filled sparse memory image (one device)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._pages: Dict[int, bytearray] = {}

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.capacity:
            raise HMCAddressError(
                f"oracle access [{addr:#x}, {addr + nbytes:#x}) outside "
                f"device capacity {self.capacity:#x}"
            )

    def read(self, addr: int, nbytes: int) -> bytes:
        self._check(addr, nbytes)
        out = bytearray(nbytes)
        pos = 0
        while pos < nbytes:
            a = addr + pos
            page = self._pages.get(a >> _PAGE_SHIFT)
            off = a & _PAGE_MASK
            n = min(nbytes - pos, _PAGE_BYTES - off)
            if page is not None:
                out[pos : pos + n] = page[off : off + n]
            pos += n
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        pos = 0
        nbytes = len(data)
        while pos < nbytes:
            a = addr + pos
            idx = a >> _PAGE_SHIFT
            page = self._pages.get(idx)
            if page is None:
                page = self._pages[idx] = bytearray(_PAGE_BYTES)
            off = a & _PAGE_MASK
            n = min(nbytes - pos, _PAGE_BYTES - off)
            page[off : off + n] = data[pos : pos + n]
            pos += n


class _OracleShim:
    """The ``hmc`` argument handed to CMC plugins by the oracle.

    Exposes exactly the surface plugins use (``mem_read`` /
    ``mem_write`` with a ``dev`` keyword) backed by the oracle's image,
    so a plugin executes identically under the engine and the oracle.
    """

    def __init__(self, oracle: "Oracle"):
        self._oracle = oracle

    def mem_read(self, addr: int, nbytes: int, *, dev: int = 0) -> bytes:
        return self._oracle.mem_read(addr, nbytes, dev=dev)

    def mem_write(self, addr: int, data: bytes, *, dev: int = 0) -> None:
        self._oracle.mem_write(addr, data, dev=dev)


class Oracle:
    """Device-wide functional reference: memory images + registers + CMC.

    One oracle models every cube of a context (``config.num_devs``
    images and register files).  It shares no state with any
    :class:`~repro.hmc.sim.HMCSim`; the differential runner loads the
    same CMC modules into both sides independently.  No checkpoint
    carries it: a differential run starts both sides fresh.
    """

    def __init__(self, config: HMCConfig):
        self.config = config
        self.capacity = config.capacity_bytes
        self.addrmap = AddressMap(config)
        self.cmc = CMCRegistry()
        self._images = [_SparseImage(self.capacity) for _ in range(config.num_devs)]
        self._registers = [
            RegisterFile(config, d) for d in range(config.num_devs)
        ]
        self._shim = _OracleShim(self)

    # -- setup -----------------------------------------------------------------

    def load_cmc(self, source: Union[str, object]) -> CMCOperation:
        """Load a CMC plugin into the oracle's own registry."""
        op = _load_cmc_plugin(source)
        self.cmc.register(op)
        return op

    def mem_read(self, addr: int, nbytes: int, *, dev: int = 0) -> bytes:
        """Read the expected memory image (zero-filled, bounds-checked)."""
        return self._images[dev].read(addr, nbytes)

    def mem_write(self, addr: int, data: bytes, *, dev: int = 0) -> None:
        """Write the expected memory image (preloads and CMC plugins)."""
        self._images[dev].write(addr, data)

    def registers(self, dev: int = 0) -> RegisterFile:
        """The expected register file of device ``dev``."""
        return self._registers[dev]

    # -- execution --------------------------------------------------------------

    def expects_response(self, pkt: RequestPacket) -> bool:
        """Whether a request will produce a response packet.

        Mirrors ``HMCSim.expects_response``: flow is silent, posted
        commands are silent, unregistered or inactive CMC codes are
        answered with an error response, active CMC ops follow their
        registration.
        """
        info = command_for_code(pkt.cmd)
        if info.kind is CommandKind.FLOW:
            return False
        if info.kind is CommandKind.CMC:
            op = self.cmc.lookup(pkt.cmd)
            return op is None or not op.active or not op.registration.posted
        return not info.posted

    def execute(self, pkt: RequestPacket, *, dev: int = 0, link: int = 0) -> Expectation:
        """Apply one request to the expected state; return the expected
        response.

        ``link`` is the link the host injects on — it becomes the
        packet's SLID on the wire, which CMC plugins may observe in the
        tail word.  Execution-error mapping mirrors the engine's
        packet processor: CMC-inactive → 0x04, CMC failure → 0x05,
        address violations → 0x03, anything else → 0x01; errors on
        posted requests are dropped.
        """
        info = command_for_code(pkt.cmd)
        rsp_cmd: int = info.rsp_cmd_code
        rsp_data = b""
        errstat = 0
        posted = info.posted

        try:
            if info.kind is CommandKind.FLOW:
                # Link-layer only: no memory semantics, never answered.
                return Expectation(has_rsp=False, tag=pkt.tag, cub=pkt.cub)

            if info.kind is CommandKind.CMC:
                # The engine stamps SLID at send time; hand the plugin
                # the same head/tail words it would see on the wire.
                head, words, tail = _rqst_wire(
                    pkt.cmd, pkt.tag, pkt.addr, pkt.cub, pkt.data,
                    pkt.rrp, pkt.frp, pkt.seq, pkt.pb, link, pkt.rtc,
                )
                local = pkt.addr & (self.capacity - 1)
                vault = self.addrmap.vault_of(local)
                op, rsp_data, rsp_cmd = self.cmc.execute(
                    self._shim, dev, self.config.quad_of_vault(vault), vault,
                    self.addrmap.bank_of(local), pkt.addr, pkt.lng, head, tail,
                    words,
                )
                posted = op.registration.posted
            elif info.kind is CommandKind.READ:
                rsp_data = self.mem_read(pkt.addr, info.rsp_data_bytes or 0, dev=dev)
            elif info.kind in (CommandKind.WRITE, CommandKind.POSTED_WRITE):
                self.mem_write(pkt.addr, pkt.data, dev=dev)
            elif info.kind is CommandKind.MODE:
                regs = self._registers[dev]
                if info.rqst_name == "MD_RD":
                    value = regs.read(pkt.addr)
                    rsp_data = value.to_bytes(8, "little") + bytes(8)
                else:  # MD_WR
                    regs.write(pkt.addr, int.from_bytes(pkt.data[:8], "little"))
            elif is_amo(pkt.cmd):
                footprint = _AMO_FOOTPRINT.get(pkt.cmd, 16)
                before = self.mem_read(pkt.addr, footprint, dev=dev)
                after, rsp_data, errstat = reference_amo(pkt.cmd, before, pkt.data)
                self.mem_write(pkt.addr, after[:footprint], dev=dev)
            else:  # pragma: no cover - command table is exhaustive
                raise HMCSimError(f"unhandled command {pkt.cmd}")
        except CMCNotActiveError:
            return self._error(pkt, dev, posted, ERRSTAT_CMC_INACTIVE)
        except CMCExecutionError:
            return self._error(pkt, dev, posted, ERRSTAT_CMC_FAILED)
        except HMCAddressError:
            return self._error(pkt, dev, posted, ERRSTAT_ADDRESS)
        except HMCSimError:
            return self._error(pkt, dev, posted, ERRSTAT_GENERIC)

        if posted:
            return Expectation(has_rsp=False, tag=pkt.tag, cub=dev)
        return Expectation(
            has_rsp=True,
            tag=pkt.tag,
            cub=dev,
            rsp_cmd=rsp_cmd,
            data=rsp_data,
            errstat=errstat,
            dinv=pkt.pb,
        )

    @staticmethod
    def _error(
        pkt: RequestPacket, dev: int, posted: bool, errstat: int
    ) -> Expectation:
        if posted:
            return Expectation(has_rsp=False, tag=pkt.tag, cub=dev, errstat=errstat)
        # RSP_ERROR is 0x3E; redeclared via the response enum would pull
        # in nothing extra, but the engine builds it from the same
        # hmc_response_t value — keep the literal adjacent to its use.
        return Expectation(
            has_rsp=True,
            tag=pkt.tag,
            cub=dev,
            rsp_cmd=0x3E,
            data=b"",
            errstat=errstat,
            dinv=pkt.pb,
        )

    def run(
        self, requests: List[RequestPacket], *, dev: int = 0, link: int = 0
    ) -> List[Expectation]:
        """Execute a request list in order (convenience for tests)."""
        return [self.execute(pkt, dev=dev, link=link) for pkt in requests]
