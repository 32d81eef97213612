"""C-compatible functional API with the original HMC-Sim names.

HMC-Sim's established user base drives the paper's *API Compatibility*
requirement (§IV.A).  This module offers the original function-style
entry points — ``hmcsim_init``, ``hmcsim_send``, ``hmcsim_recv``,
``hmcsim_clock``, ``hmcsim_load_cmc``, … — as thin wrappers over
:class:`repro.hmc.sim.HMCSim`, using C-style integer status returns
(``0`` ok, ``HMC_STALL``, ``-1`` error) instead of exceptions wherever
the original API did.

Ports of existing HMC-Sim harnesses can therefore be translated almost
line-for-line; new code should prefer the object API.
"""

from __future__ import annotations

from typing import IO, List, Optional, Tuple, Union

from repro.errors import HMCSimError, HMCStatus
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.packet import RequestPacket, ResponsePacket, unpack_data
from repro.hmc.sim import HMCSim
from repro.hmc.trace import TraceLevel

__all__ = [
    "hmcsim_init",
    "hmcsim_free",
    "hmcsim_load_cmc",
    "hmcsim_build_memrequest",
    "hmcsim_send",
    "hmcsim_recv",
    "hmcsim_clock",
    "hmcsim_trace_handle",
    "hmcsim_trace_level",
    "hmcsim_jtag_reg_read",
    "hmcsim_jtag_reg_write",
    "hmcsim_util_set_max_blocksize",
    "hmcsim_util_get_max_blocksize",
    "hmcsim_util_decode_vault",
    "hmcsim_util_decode_bank",
    "hmcsim_util_decode_quad",
    "hmcsim_util_decode_row",
    "hmcsim_util_decode_qv",
    "hmcsim_decode_memresponse",
    "HMC_OK",
    "HMC_STALL",
    "HMC_ERROR",
]

HMC_OK = int(HMCStatus.OK)
HMC_STALL = int(HMCStatus.STALL)
HMC_ERROR = int(HMCStatus.ERROR)


def hmcsim_init(
    num_devs: int,
    num_links: int,
    num_vaults: int,
    queue_depth: int,
    num_banks: int,
    num_drams: int,
    capacity: int,
    xbar_depth: int,
) -> Optional[HMCSim]:
    """Create a simulation context (``hmcsim_init``).

    Returns the context, or None for an illegal configuration —
    mirroring the C API's ``-1`` without raising.
    """
    try:
        config = HMCConfig(
            num_devs=num_devs,
            num_links=num_links,
            num_vaults=num_vaults,
            queue_depth=queue_depth,
            num_banks=num_banks,
            num_drams=num_drams,
            capacity=capacity,
            xbar_depth=xbar_depth,
        )
    except HMCSimError:
        return None
    return HMCSim(config)


def hmcsim_free(hmc: HMCSim) -> int:
    """Release a context (``hmcsim_free``)."""
    try:
        hmc.free()
    except HMCSimError:
        return HMC_ERROR
    return HMC_OK


def hmcsim_util_set_max_blocksize(hmc: HMCSim, bsize: int) -> int:
    """Set the maximum block size (``hmcsim_util_set_max_blocksize``).

    The block size controls the address interleave, so in this
    implementation it rebuilds the context's address map and every
    device routes by the new one.  Returns ``-1`` for unsupported sizes.
    """
    from dataclasses import replace

    from repro.hmc.addrmap import AddressMap

    try:
        config = replace(hmc.config, bsize=bsize)
        addrmap = AddressMap(config)
    except HMCSimError:
        return HMC_ERROR
    hmc.config, hmc.addrmap = config, addrmap
    for device in hmc.devices:
        device.route_by(config, addrmap)
    return HMC_OK


def hmcsim_util_get_max_blocksize(hmc: HMCSim) -> int:
    """Read back the configured maximum block size."""
    return hmc.config.bsize


def hmcsim_util_decode_vault(hmc: HMCSim, addr: int) -> int:
    """Vault index of a device-local address (``hmcsim_util_decode_*``)."""
    return hmc.addrmap.vault_of(addr % hmc.config.capacity_bytes)


def hmcsim_util_decode_bank(hmc: HMCSim, addr: int) -> int:
    """Bank index of a device-local address."""
    return hmc.addrmap.bank_of(addr % hmc.config.capacity_bytes)


def hmcsim_util_decode_quad(hmc: HMCSim, addr: int) -> int:
    """Quadrant of a device-local address."""
    return hmc.config.quad_of_vault(hmcsim_util_decode_vault(hmc, addr))


def hmcsim_util_decode_row(hmc: HMCSim, addr: int) -> int:
    """DRAM row of a device-local address."""
    return hmc.addrmap.decode(addr % hmc.config.capacity_bytes).row


def hmcsim_util_decode_qv(hmc: HMCSim, addr: int) -> Tuple[int, int]:
    """(quad, vault) of a device-local address in one call."""
    vault = hmcsim_util_decode_vault(hmc, addr)
    return hmc.config.quad_of_vault(vault), vault


def hmcsim_load_cmc(hmc: HMCSim, cmc_lib: Union[str, object]) -> int:
    """Load a CMC plugin (``hmc_load_cmc``): 0 ok, -1 on any failure."""
    try:
        hmc.load_cmc(cmc_lib)
    except HMCSimError:
        return HMC_ERROR
    return HMC_OK


def hmcsim_build_memrequest(
    hmc: HMCSim,
    dev: int,
    addr: int,
    tag: int,
    rqst: hmc_rqst_t,
    link: int,
    payload: Optional[List[int]] = None,
) -> Optional[Tuple[int, int, List[int]]]:
    """Build a request (``hmcsim_build_memrequest``).

    Args:
        payload: data payload as 64-bit words (HMC-Sim convention), or
            None for commands without data.

    Returns:
        ``(head, tail, packet_words)`` or None on error.  ``dev`` is
        encoded into the packet's CUB field; ``link`` is recorded in
        the tail SLID field at send time.
    """
    try:
        data = unpack_data(payload) if payload else b""
        pkt = hmc.build_memrequest(rqst, addr, tag, cub=dev, data=data)
        words = pkt.encode()
        return words[0], words[-1], words
    except HMCSimError:
        return None


def hmcsim_send(hmc: HMCSim, packet: List[int], dev: int = 0, link: int = 0) -> int:
    """Send an encoded request packet (``hmcsim_send``).

    Returns 0, ``HMC_STALL``, or -1.
    """
    try:
        pkt = RequestPacket.decode(packet, check_crc=hmc.config.check_crc)
        status = hmc.send(pkt, dev=dev, link=link)
    except HMCSimError:
        return HMC_ERROR
    return int(status)


def hmcsim_recv(hmc: HMCSim, dev: int, link: int) -> Optional[List[int]]:
    """Receive one response packet as 64-bit words (``hmcsim_recv``).

    Returns None when no response is ready (the C API's ``HMC_STALL``).
    """
    try:
        rsp = hmc.recv(dev=dev, link=link)
    except HMCSimError:
        return None
    return rsp.encode() if rsp is not None else None


def hmcsim_decode_memresponse(packet: List[int]) -> Optional[ResponsePacket]:
    """Decode a received response packet into its fields."""
    try:
        return ResponsePacket.decode(packet)
    except HMCSimError:
        return None


def hmcsim_clock(hmc: HMCSim) -> int:
    """Advance the context one cycle (``hmcsim_clock``): 0 ok, -1 error."""
    try:
        hmc.clock()
    except HMCSimError:
        return HMC_ERROR
    return HMC_OK


def hmcsim_trace_handle(hmc: HMCSim, handle: Optional[IO[str]]) -> int:
    """Attach a trace stream (``hmcsim_trace_handle``)."""
    hmc.trace_handle(handle)
    return HMC_OK


def hmcsim_trace_level(hmc: HMCSim, level: int) -> int:
    """Set trace categories (``hmcsim_trace_level``)."""
    hmc.trace_level(TraceLevel(level))
    return HMC_OK


def hmcsim_jtag_reg_read(hmc: HMCSim, dev: int, reg: int) -> Optional[int]:
    """JTAG register read; None on error (C API returns -1)."""
    try:
        return hmc.jtag_reg_read(dev, reg)
    except HMCSimError:
        return None


def hmcsim_jtag_reg_write(hmc: HMCSim, dev: int, reg: int, value: int) -> int:
    """JTAG register write: 0 ok, -1 error."""
    try:
        hmc.jtag_reg_write(dev, reg, value)
    except HMCSimError:
        return HMC_ERROR
    return HMC_OK
