"""Device registers and the simulated JTAG access path.

HMC-Sim 1.0 exposed "internal access to the device via a simulated
JTAG API" alongside mode read/write packets; both interfaces are
carried forward here (§II of the paper).  The register file models the
externally visible configuration/status registers of an HMC device:
per-link status/control, global control, vault control, error, and the
read-only FEATURES/REVISION words whose fields encode the device
geometry.

Registers are addressed by a 22-bit register index — the value carried
in the ``ADRS`` field of ``MD_RD``/``MD_WR`` packets and passed to the
JTAG helpers.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import HMCSimError
from repro.hmc.components import Stateful
from repro.hmc.config import HMCConfig

__all__ = ["RegisterFile", "HMC_REG"]


#: Register index map (mirrors HMC-Sim's HMC_REG_* macros).
HMC_REG: Dict[str, int] = {
    "EDR0": 0x2B0000,  # external data register 0..3
    "EDR1": 0x2B0001,
    "EDR2": 0x2B0002,
    "EDR3": 0x2B0003,
    "ERR": 0x2B0004,  # error status
    "GC": 0x280000,  # global configuration
    "LC0": 0x240000,  # link configuration 0..7
    "LC1": 0x240001,
    "LC2": 0x240002,
    "LC3": 0x240003,
    "LC4": 0x240004,
    "LC5": 0x240005,
    "LC6": 0x240006,
    "LC7": 0x240007,
    "LRLL": 0x240010,  # link retry low-level
    "GRLL": 0x240011,  # global retry low-level
    "VCR": 0x108000,  # vault control
    "FEAT": 0x2C0000,  # features (read-only)
    "RVID": 0x2C0001,  # revision / vendor id (read-only)
}

_READ_ONLY = frozenset({HMC_REG["FEAT"], HMC_REG["RVID"]})
_NAMES = {idx: name for name, idx in HMC_REG.items()}


def _features_word(config: HMCConfig) -> int:
    """Pack device geometry into the FEATURES register.

    Layout: [3:0] capacity GB, [7:4] link count, [13:8] vault count,
    [18:14] banks per vault, [23:19] DRAM dies.
    """
    return (
        (config.capacity & 0xF)
        | ((config.num_links & 0xF) << 4)
        | ((config.num_vaults & 0x3F) << 8)
        | ((config.num_banks & 0x1F) << 14)
        | ((config.num_drams & 0x1F) << 19)
    )


#: Revision word: Gen2, spec 2.1 (major 2, minor 1), vendor id 0xF.
_RVID_WORD = (2 << 8) | (1 << 4) | 0xF


def _reset_values(config: HMCConfig) -> Dict[int, int]:
    """Register index → value of a freshly built device."""
    regs = {idx: 0 for idx in HMC_REG.values()}
    regs[HMC_REG["FEAT"]] = _features_word(config)
    regs[HMC_REG["RVID"]] = _RVID_WORD
    # Link configuration registers: bit 0 = link active.
    for link in range(config.num_links):
        regs[HMC_REG[f"LC{link}"]] = 1
    return regs


class RegisterFile(Stateful):
    """The register file of one device."""

    def __init__(self, config: HMCConfig, dev: int):
        self.config = config
        self.dev = dev
        self._regs: Dict[int, int] = _reset_values(config)

    def valid(self, reg: int) -> bool:
        """True if ``reg`` names an implemented register."""
        return reg in self._regs

    def read(self, reg: int) -> int:
        """Read a register.

        Raises:
            HMCSimError: for unimplemented register indices.
        """
        try:
            return self._regs[reg]
        except KeyError:
            raise HMCSimError(
                f"device {self.dev}: register {reg:#x} is not implemented"
            ) from None

    def write(self, reg: int, value: int) -> None:
        """Write a register (read-only registers silently keep their value,
        matching hardware write-ignore semantics).

        Raises:
            HMCSimError: for unimplemented register indices or values
                outside 64 bits.
        """
        if reg not in self._regs:
            raise HMCSimError(
                f"device {self.dev}: register {reg:#x} is not implemented"
            )
        if not 0 <= value < (1 << 64):
            raise HMCSimError(f"register value {value!r} outside 64 bits")
        if reg in _READ_ONLY:
            return
        self._regs[reg] = value

    def count_error(self) -> None:
        """Latch one device-detected error into the ERR status register.

        Used by the fault layer (uncorrectable ECC events) the way real
        hardware accumulates error syndromes: hosts poll ERR via mode
        reads or the JTAG path.  Saturates at 64 bits rather than wrap.
        """
        reg = HMC_REG["ERR"]
        value = self._regs[reg]
        if value < (1 << 64) - 1:
            self._regs[reg] = value + 1

    def snapshot_state(self) -> Dict[str, int]:
        fresh = _reset_values(self.config)
        return {
            _NAMES[idx]: val
            for idx, val in sorted(self._regs.items())
            if val != fresh[idx]
        }

    def restore_state(self, doc: Dict[str, int]) -> None:
        """Load a :meth:`snapshot_state` dict (read-only registers keep
        their derived value)."""
        self._regs = _reset_values(self.config)
        for name, value in doc.items():
            if name not in HMC_REG:
                raise HMCSimError(f"unknown register {name!r} in checkpoint")
            self.write(HMC_REG[name], value)
