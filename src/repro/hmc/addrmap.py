"""Physical address decomposition (address → vault/bank/DRAM/row).

The HMC specification's *default address map* interleaves consecutive
max-block-size blocks across vaults, then across banks within a vault,
with the remaining high bits selecting the DRAM row.  The block size is
configurable (32..256 bytes) through ``hmcsim_util_set_max_blocksize``,
which is why the paper notes its mutex experiment sets a 64-byte max
block "which subsequently does not affect our respective simulation" —
a single 16-byte lock never spans blocks.

The mapping is bijective over the device capacity: every physical byte
address maps to exactly one (vault, bank, dram, row, offset) tuple and
back.  Property tests in ``tests/hmc/test_addrmap.py`` pin this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import HMCAddressError
from repro.hmc.config import HMCConfig

__all__ = ["AddressMap", "DecodedAddress"]


def _log2(n: int) -> int:
    b = n.bit_length() - 1
    if 1 << b != n:
        raise ValueError(f"{n} is not a power of two")
    return b


@dataclass(frozen=True)
class DecodedAddress:
    """One physical address decomposed into device coordinates."""

    addr: int
    dev: int
    quad: int
    vault: int
    bank: int
    dram: int
    row: int
    offset: int  # byte offset within the block


class AddressMap:
    """Default HMC address interleave for a given configuration.

    Bit layout, low to high (``addr_interleave="vault"``, the default)::

        [boff]  block offset     log2(bsize) bits
        [vault] vault select     log2(num_vaults) bits
        [bank]  bank select      log2(num_banks) bits
        [row]   row / remainder  everything up to the capacity boundary
        [dev]   cube select      log2(num_devs) bits (chained topologies)

    With ``addr_interleave="bank"`` the vault and bank fields swap:
    consecutive blocks sweep the banks of one vault before moving to
    the next vault — maximizing bank-level parallelism for streaming
    access at the cost of concentrating it on one vault controller
    (quantified by ``benchmarks/bench_ablation_interleave.py``).
    """

    def __init__(self, config: HMCConfig):
        self.config = config
        boff_bits = _log2(config.bsize)
        vault_bits = _log2(config.num_vaults)
        bank_bits = _log2(config.num_banks)
        # The interleave, decided once: the low bits of each field.
        if config.addr_interleave == "vault":
            self.vault_lo, self.bank_lo = boff_bits, boff_bits + vault_bits
        else:
            self.bank_lo, self.vault_lo = boff_bits, boff_bits + bank_bits
        self.row_lo = boff_bits + vault_bits + bank_bits
        #: Number of row-address bits per bank.
        self.row_bits = _log2(config.capacity_bytes) - self.row_lo
        if self.row_bits < 0:
            raise HMCAddressError(
                f"capacity {config.capacity} GB too small for "
                f"{config.num_vaults} vaults x {config.num_banks} banks "
                f"at block size {config.bsize}"
            )
        # DRAM die select: the top bits of the row are attributed to the
        # stacked die, mirroring how HMC-Sim reports DRAM coordinates.
        dram_bits = min(self.row_bits, (config.num_drams - 1).bit_length())
        self._dram_shift = self.row_bits - dram_bits

    # -- forward ------------------------------------------------------------

    def decode(self, addr: int) -> DecodedAddress:
        """Decompose a physical byte address.

        Raises:
            HMCAddressError: if ``addr`` is outside the topology capacity.
        """
        cfg = self.config
        if addr < 0 or addr >= cfg.total_bytes:
            raise HMCAddressError(
                f"address {addr:#x} outside capacity "
                f"({cfg.num_devs} x {cfg.capacity} GB)"
            )
        vault = self.vault_of(addr)
        row = (addr >> self.row_lo) & ((1 << self.row_bits) - 1)
        return DecodedAddress(
            addr=addr,
            dev=self.dev_of(addr),
            quad=cfg.quad_of_vault(vault),
            vault=vault,
            bank=self.bank_of(addr),
            dram=(row >> self._dram_shift) % cfg.num_drams,
            row=row,
            offset=addr & (cfg.bsize - 1),
        )

    # -- inverse ------------------------------------------------------------

    def encode(
        self, vault: int, bank: int, row: int, offset: int = 0, dev: int = 0
    ) -> int:
        """Compose a physical address from device coordinates.

        Raises:
            HMCAddressError: if any coordinate is out of range.
        """
        cfg = self.config
        if not 0 <= vault < cfg.num_vaults:
            raise HMCAddressError(f"vault {vault} out of range")
        if not 0 <= bank < cfg.num_banks:
            raise HMCAddressError(f"bank {bank} out of range")
        if not 0 <= row < (1 << self.row_bits):
            raise HMCAddressError(f"row {row} out of range")
        if not 0 <= offset < cfg.bsize:
            raise HMCAddressError(f"offset {offset} out of range")
        if not 0 <= dev < cfg.num_devs:
            raise HMCAddressError(f"dev {dev} out of range")
        return (
            dev * cfg.capacity_bytes
            | row << self.row_lo
            | bank << self.bank_lo
            | vault << self.vault_lo
            | offset
        )

    def vault_of(self, addr: int) -> int:
        """Fast path: just the vault index of ``addr``."""
        return (addr >> self.vault_lo) & (self.config.num_vaults - 1)

    def bank_of(self, addr: int) -> int:
        """Fast path: just the bank index of ``addr``."""
        return (addr >> self.bank_lo) & (self.config.num_banks - 1)

    def dev_of(self, addr: int) -> int:
        """Fast path: the cube (device) index of ``addr``."""
        return addr // self.config.capacity_bytes

    def routing_constants(self) -> Tuple[int, int, int, int, int, int]:
        """Bit-extraction constants for inlined routing on the send path.

        Returns ``(vault_lo, vault_mask, bank_lo, bank_mask, row_lo,
        row_mask)`` such that for a device-local address ``a``::

            vault = (a >> vault_lo) & vault_mask
            bank  = (a >> bank_lo)  & bank_mask
            row   = (a >> row_lo)   & row_mask

        reproduce :meth:`vault_of`, :meth:`bank_of` and :meth:`decode`'s row.
        """
        cfg = self.config
        return (
            self.vault_lo,
            cfg.num_vaults - 1,
            self.bank_lo,
            cfg.num_banks - 1,
            self.row_lo,
            (1 << self.row_bits) - 1,
        )

    def coordinates(self, addr: int) -> Tuple[int, int, int, int]:
        """(dev, quad, vault, bank) of ``addr`` without full decode cost."""
        v = self.vault_of(addr)
        return (
            self.dev_of(addr),
            self.config.quad_of_vault(v),
            v,
            self.bank_of(addr),
        )
