"""Built-in fault kinds, spanning the stack DRAM → crossbar → plugins.

Every injector is **deterministic and seeded**: a fault fires iff a
splitmix64 hash of (the injector's derived seed, stable simulation
coordinates — device, vault/link, cycle, tag, address) falls below the
configured rate.  No injector holds mutable RNG state, so results are
bit-identical between serial and parallel sweeps, independent of
active-set idle skipping, and reproducible from the
:class:`~repro.faults.plan.FaultPlan` alone.

Built-in kinds:

===============  ============  =============================================
kind             site          effect
===============  ============  =============================================
``dram_bitflip`` ``dram``      bit flips on DRAM reads behind a SECDED ECC
                               model: single-bit errors are corrected
                               (counted, data intact); multi-bit errors are
                               uncorrectable — the response is poisoned
                               (``DINV`` set, nonzero ``ERRSTAT``) and the
                               device ``ERR`` status register increments
``vault_stall``  ``vault``     a vault transiently freezes for ``duration``
                               cycles (queued work waits; nothing is lost)
``xbar_drop``    ``rsp_drop``  a response vanishes at the crossbar retire
                               port (the host watchdog's reason to exist)
``xbar_dup``     ``rsp_dup``   a response is delivered twice
``cmc_crash``    ``cmc``       a CMC plugin execution fails; the failure is
                               isolated into an ``RSP_ERROR`` response
``link_crc``     ``link``      CRC corruption on the request link — the
                               existing :class:`repro.hmc.flow.ErrorModel`,
                               unified under the fault registry (requires
                               ``link_flow="tokens"``)
===============  ============  =============================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.errors import FaultError
from repro.faults.plan import splitmix64
from repro.faults.registry import register_fault
from repro.hmc.flow import ErrorModel
from repro.hmc.vault import ERRSTAT_ECC_UNCORRECTABLE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.controller import FaultController

__all__ = [
    "DramBitFlipInjector",
    "VaultStallInjector",
    "ResponseDropInjector",
    "ResponseDupInjector",
    "CmcCrashInjector",
    "LinkCrcInjector",
    "ERRSTAT_ECC_UNCORRECTABLE",
]

_M64 = (1 << 64) - 1

#: The domain of every rate and probability parameter.
_UNIT = (0.0, 1.0)


class _Injector:
    """What every injector keeps: its controller, rate and seed."""

    param_domains: Dict[str, Any] = {"rate": _UNIT}

    def __init__(self, ctl: "FaultController", params: Dict[str, Any], seed: int):
        self.ctl = ctl
        self.rate = float(params["rate"])
        self.seed = seed


def _hash(seed: int, *keys: int) -> int:
    h = seed
    for k in keys:
        h = splitmix64(h ^ (k & _M64))
    return h


def _draw(seed: int, *keys: int) -> float:
    """Deterministic uniform draw in [0, 1) from seed + coordinates."""
    return _hash(seed, *keys) / float(1 << 64)


@register_fault(
    "dram_bitflip",
    primary="rate",
    defaults={"rate": 0.0, "uncorrectable": 0.25},
    doc="ECC bit flips on DRAM reads (SECDED: corrected vs. poisoned)",
)
class DramBitFlipInjector(_Injector):
    """Seeded bit flips on read, filtered through a SECDED ECC model.

    ``rate`` is the per-read probability of any flip; of those,
    ``uncorrectable`` is the fraction that flip two bits — beyond
    SECDED's single-error correction, so the read data is poisoned.
    """

    site = "dram"
    param_domains = {"rate": _UNIT, "uncorrectable": _UNIT}

    def __init__(self, ctl: "FaultController", params: Dict[str, Any], seed: int):
        super().__init__(ctl, params, seed)
        self.uncorrectable = float(params["uncorrectable"])

    def on_read(
        self, device: Any, flight: Any, data: bytes, cycle: int
    ) -> Tuple[bytes, int]:
        """Apply the ECC model to one read.

        Returns ``(data, errstat)``: errstat 0 for clean or corrected
        reads (corrected reads return the *original* data — SECDED
        repaired the flip), or :data:`ERRSTAT_ECC_UNCORRECTABLE` with
        double-bit-flipped data for poisoned reads.
        """
        pkt = flight.pkt
        h = _hash(self.seed, device.dev, pkt.addr, pkt.tag, cycle)
        if h / float(1 << 64) >= self.rate or not data:
            return data, 0
        if _draw(self.seed ^ 0xECC, device.dev, pkt.addr, pkt.tag, cycle) >= (
            self.uncorrectable
        ):
            # Single-bit flip: SECDED corrects it in flight.
            self.ctl.note(
                "dram_ecc_corrected", cycle,
                dev=device.dev, vault=flight.vault, addr=f"{pkt.addr:#x}",
            )
            return data, 0
        # Double-bit flip: uncorrectable.  Flip two distinct bits at
        # hash-derived positions, poison the response, and latch the
        # error in the device's ERR status register.
        nbits = len(data) * 8
        b0 = h % nbits
        b1 = (b0 + 1 + (h >> 17) % (nbits - 1)) % nbits
        corrupted = bytearray(data)
        for bit in (b0, b1):
            corrupted[bit >> 3] ^= 1 << (bit & 7)
        device.registers.count_error()
        self.ctl.note(
            "dram_ecc_uncorrectable", cycle,
            dev=device.dev, vault=flight.vault, addr=f"{pkt.addr:#x}",
            tag=pkt.tag,
        )
        return bytes(corrupted), ERRSTAT_ECC_UNCORRECTABLE


@register_fault(
    "vault_stall",
    primary="rate",
    defaults={"rate": 0.0, "duration": 8},
    doc="transient vault freezes (whole vault idles for `duration` cycles)",
)
class VaultStallInjector(_Injector):
    """Transient vault/bank stall faults.

    Time is tiled into ``duration``-cycle windows per (device, vault);
    a window draws once, and a hit freezes the vault for the whole
    window.  Keying the draw on the window index (not on evaluation
    order) keeps the fault pattern independent of active-set idle
    skipping: a vault that was idle anyway simply never observes its
    stalled windows.
    """

    site = "vault"
    param_domains = {"rate": _UNIT, "duration": (1, None)}

    def __init__(self, ctl: "FaultController", params: Dict[str, Any], seed: int):
        super().__init__(ctl, params, seed)
        self.duration = params["duration"]

    def stalled(self, dev: int, vault: int, cycle: int) -> bool:
        """True when (dev, vault) is frozen at ``cycle``."""
        if _draw(self.seed, dev, vault, cycle // self.duration) >= self.rate:
            return False
        self.ctl.note("vault_stall", cycle, dev=dev, vault=vault)
        return True


class _ResponseFaultBase(_Injector):
    """Shared draw logic for the two crossbar response faults."""

    def fires(self, dev: int, link: int, rsp: Any, cycle: int) -> bool:
        """Deterministic per-retirement draw."""
        return _draw(self.seed, dev, link, rsp.tag, cycle) < self.rate


@register_fault(
    "xbar_drop",
    primary="rate",
    defaults={"rate": 0.0},
    doc="responses vanish at the crossbar retire port (lost tags)",
)
class ResponseDropInjector(_ResponseFaultBase):
    site = "rsp_drop"


@register_fault(
    "xbar_dup",
    primary="rate",
    defaults={"rate": 0.0},
    doc="responses are retired twice at the crossbar (duplicate delivery)",
)
class ResponseDupInjector(_ResponseFaultBase):
    site = "rsp_dup"


@register_fault(
    "cmc_crash",
    primary="rate",
    defaults={"rate": 0.0},
    doc="CMC plugin executions fail (isolated into RSP_ERROR responses)",
)
class CmcCrashInjector(_Injector):
    """Deterministic CMC-plugin failures.

    A hit makes :func:`repro.hmc.vault.process_rqst` raise
    ``CMCExecutionError`` *before* the plugin runs, which the pipeline's
    existing isolation turns into an ``RSP_ERROR`` response (errstat
    ``ERRSTAT_CMC_FAILED``) — proving that a misbehaving plugin cannot
    wedge the simulation.
    """

    site = "cmc"

    def crashes(self, dev: int, flight: Any, cycle: int) -> bool:
        """Whether this CMC execution is forced to fail."""
        pkt = flight.pkt
        if _draw(self.seed, dev, pkt.tag, pkt.addr, cycle) >= self.rate:
            return False
        self.ctl.note(
            "cmc_crash", cycle, dev=dev, tag=pkt.tag, cmd=pkt.cmd,
        )
        return True


@register_fault(
    "link_crc",
    primary="rate",
    defaults={"rate": 0.0},
    doc="CRC corruption on request links (needs link_flow=tokens)",
)
class LinkCrcInjector(_Injector):
    """The existing link :class:`~repro.hmc.flow.ErrorModel`, unified.

    Build-time only: installing this kind attaches a seeded
    ``ErrorModel`` to the context's flow model, after which the link
    layer's own CRC/NAK/replay machinery (IRTRY) does the work.  The
    controller surfaces the resulting retry count through
    :meth:`~repro.faults.controller.FaultController.counters`.
    """

    site = "link"

    def __init__(self, ctl: "FaultController", params: Dict[str, Any], seed: int):
        super().__init__(ctl, params, seed)
        flow = ctl.sim.flow
        if flow is None or not hasattr(flow, "errors"):
            raise FaultError(
                "the link_crc fault needs a link flow model: configure the "
                "context with link_flow='tokens'"
            )
        flow.errors = ErrorModel(flit_error_rate=self.rate, seed=seed)
