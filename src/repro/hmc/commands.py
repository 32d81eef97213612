"""HMC Gen2 command set: request/response enumerations and FLIT metadata.

This module reconstructs the ``hmc_rqst_t`` / ``hmc_response_t``
enumerated types from HMC-Sim 2.0 together with the per-command packet
length metadata reported in Table I of the paper.

Key facts encoded here (and pinned by ``tests/hmc/test_commands.py``):

* The request command field (``CMD``) is 7 bits wide: codes 0..127.
* 58 codes are defined by the HMC 2.0/2.1 specification (flow control,
  reads, writes, posted writes, mode read/write, and the Gen2 atomic
  memory operations).
* Exactly **70** codes are unused by the specification; HMC-Sim 2.0
  enumerates each of them as ``CMCnn`` (``nn`` = decimal command code)
  so that user-defined Custom Memory Cube operations can occupy any of
  them while remaining wire-compatible with the Gen2 packet format.
* One FLIT is 128 bits (16 bytes).  A packet's head+tail occupy exactly
  one FLIT, so a request carrying *N* bytes of data is ``1 + N/16``
  FLITs long.  The largest packet is 17 FLITs (a 256-byte write).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "hmc_rqst_t",
    "hmc_response_t",
    "CommandKind",
    "CommandInfo",
    "ARM_FLOW",
    "ARM_READ",
    "ARM_WRITE",
    "ARM_MODE_RD",
    "ARM_MODE_WR",
    "ARM_ATOMIC",
    "ARM_CMC",
    "COMMAND_TABLE",
    "COMMAND_TABLE_LIST",
    "CMC_CODES",
    "DEFINED_CODES",
    "command_info",
    "command_for_code",
    "is_cmc_code",
    "cmc_rqst_for_code",
    "FLIT_BYTES",
    "MAX_PACKET_FLITS",
    "CMD_FIELD_WIDTH",
]

#: Bytes per FLIT.  The HMC specification defines a FLIT as 128 bits.
FLIT_BYTES = 16

#: The largest legal packet: a 256-byte write (1 overhead FLIT + 16 data FLITs).
MAX_PACKET_FLITS = 17

#: Largest encodable tag (11-bit TAG field).
MAX_TAG = (1 << 11) - 1

#: Width of the request command field in bits.
CMD_FIELD_WIDTH = 7


class CommandKind(enum.Enum):
    """Coarse classification of a request command."""

    FLOW = "flow"
    READ = "read"
    WRITE = "write"
    POSTED_WRITE = "posted_write"
    MODE = "mode"
    ATOMIC = "atomic"
    POSTED_ATOMIC = "posted_atomic"
    CMC = "cmc"


#: Execute arms: ``kind`` predecoded for the packet processor, one small
#: int per command (``CommandInfo.arm``).  The two write kinds share an
#: arm, the two atomic kinds share an arm (``posted`` carries the
#: difference), and MODE splits into its two directions.
ARM_FLOW, ARM_READ, ARM_WRITE, ARM_MODE_RD, ARM_MODE_WR, ARM_ATOMIC, ARM_CMC = range(7)

_ARM_OF_KIND = {
    CommandKind.FLOW: ARM_FLOW,
    CommandKind.READ: ARM_READ,
    CommandKind.WRITE: ARM_WRITE,
    CommandKind.POSTED_WRITE: ARM_WRITE,
    CommandKind.MODE: ARM_MODE_RD,  # MD_WR is switched by name below
    CommandKind.ATOMIC: ARM_ATOMIC,
    CommandKind.POSTED_ATOMIC: ARM_ATOMIC,
    CommandKind.CMC: ARM_CMC,
}


class hmc_response_t(enum.IntEnum):
    """Response packet command codes (``hmc_response_t``).

    ``RSP_NONE`` marks posted requests (no response packet is ever
    generated).  ``RSP_CMC`` marks a *custom* response command whose
    actual wire code is supplied by the CMC plugin's ``RSP_CMD_CODE``
    static (see Table III of the paper); the value here is only a
    sentinel used inside the simulator.
    """

    RD_RS = 0x38
    WR_RS = 0x39
    MD_RD_RS = 0x3A
    MD_WR_RS = 0x3B
    RSP_ERROR = 0x3E
    RSP_NONE = 0x00
    RSP_CMC = 0x7F


# ---------------------------------------------------------------------------
# Request command construction.
#
# The defined (specification) commands are listed explicitly; the remaining
# codes are generated as CMCnn members.  The numeric encodings follow the
# HMC 2.1 specification / HMC-Sim 2.0 source conventions.
# ---------------------------------------------------------------------------

_DEFINED: Dict[str, int] = {
    # Flow control
    "FLOW_NULL": 0x00,
    "PRET": 0x01,
    "TRET": 0x02,
    "IRTRY": 0x03,
    # Writes (16..128 bytes in 16-byte steps) + 256-byte write
    "WR16": 8,
    "WR32": 9,
    "WR48": 10,
    "WR64": 11,
    "WR80": 12,
    "WR96": 13,
    "WR112": 14,
    "WR128": 15,
    "WR256": 79,
    # Mode write / bit write
    "MD_WR": 16,
    "BWR": 17,
    # Dual 8-byte add immediate / single 16-byte add immediate
    "TWOADD8": 18,
    "ADD16": 19,
    # Posted writes
    "P_WR16": 24,
    "P_WR32": 25,
    "P_WR48": 26,
    "P_WR64": 27,
    "P_WR80": 28,
    "P_WR96": 29,
    "P_WR112": 30,
    "P_WR128": 31,
    "P_WR256": 95,
    "P_BWR": 33,
    "P_2ADD8": 34,
    "P_ADD16": 35,
    # Mode read
    "MD_RD": 40,
    # Reads (16..128 bytes) + 256-byte read
    "RD16": 48,
    "RD32": 49,
    "RD48": 50,
    "RD64": 51,
    "RD80": 52,
    "RD96": 53,
    "RD112": 54,
    "RD128": 55,
    "RD256": 119,
    # Gen2 arithmetic atomics
    "INC8": 80,
    "BWR8R": 81,
    "TWOADDS8R": 82,
    "ADDS16R": 83,
    "P_INC8": 84,
    # Gen2 boolean atomics
    "XOR16": 64,
    "OR16": 65,
    "NOR16": 66,
    "AND16": 67,
    "NAND16": 68,
    # Gen2 comparison atomics
    "CASGT8": 96,
    "CASLT8": 97,
    "CASGT16": 98,
    "CASLT16": 99,
    "CASEQ8": 100,
    "CASZERO16": 101,
    "EQ16": 104,
    "EQ8": 105,
    "SWAP16": 106,
}

#: Command codes defined by the HMC 2.0/2.1 specification.
DEFINED_CODES = frozenset(_DEFINED.values())

#: The 70 unused command codes available for Custom Memory Cube operations.
CMC_CODES: Tuple[int, ...] = tuple(
    sorted(set(range(1 << CMD_FIELD_WIDTH)) - DEFINED_CODES)
)

assert len(CMC_CODES) == 70, "the Gen2 command space must leave exactly 70 CMC codes"

_members: Dict[str, int] = dict(_DEFINED)
for _code in CMC_CODES:
    _members[f"CMC{_code:02d}"] = _code

hmc_rqst_t = enum.IntEnum("hmc_rqst_t", _members)  # type: ignore[misc]
hmc_rqst_t.__doc__ = """Request packet command codes (``hmc_rqst_t``).

Every one of the 128 possible 7-bit command encodings has a member:
the 58 specification-defined commands by name plus ``CMC04``..``CMC127``
for the 70 codes reserved for Custom Memory Cube operations.
"""


@dataclass(frozen=True)
class CommandInfo:
    """Static metadata for one request command (one row of Table I).

    Attributes:
        rqst: the request enum member.
        kind: coarse classification.
        rqst_flits: total request packet length in FLITs (head+tail
            included), or ``None`` for CMC codes (plugin-defined).
        rsp_flits: total response packet length in FLITs; ``0`` for
            posted commands; ``None`` for CMC codes.
        rsp_cmd: the response command used on success; ``RSP_NONE``
            for posted commands; ``RSP_CMC`` for CMC codes (actual
            value is plugin-defined).
    """

    rqst: "hmc_rqst_t"
    kind: CommandKind
    rqst_flits: Optional[int]
    rsp_flits: Optional[int]
    rsp_cmd: hmc_response_t

    # Derived values read once per simulated request on the execute
    # hot path; precomputed here so lookups are plain attribute loads
    # instead of per-access property evaluations.
    posted: bool = field(init=False)
    rsp_cmd_code: int = field(init=False)
    rqst_name: str = field(init=False)
    #: The execute arm (``ARM_*``) the packet processor dispatches on.
    arm: int = field(init=False)
    #: ``rqst_data_bytes`` / ``rsp_data_bytes`` as plain ints (0 for the
    #: plugin-defined CMC lengths).
    rqst_bytes: int = field(init=False)
    rsp_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "posted",
            self.rsp_cmd is hmc_response_t.RSP_NONE
            and self.kind in (CommandKind.POSTED_WRITE, CommandKind.POSTED_ATOMIC),
        )
        object.__setattr__(
            self,
            "rsp_cmd_code",
            int(self.rsp_cmd)
            if self.rsp_cmd is not hmc_response_t.RSP_NONE
            else 0,
        )
        object.__setattr__(self, "rqst_name", self.rqst.name)
        object.__setattr__(
            self,
            "arm",
            ARM_MODE_WR if self.rqst.name == "MD_WR" else _ARM_OF_KIND[self.kind],
        )
        object.__setattr__(self, "rqst_bytes", self.rqst_data_bytes or 0)
        object.__setattr__(self, "rsp_bytes", self.rsp_data_bytes or 0)

    @property
    def code(self) -> int:
        """The 7-bit wire encoding of the command."""
        return int(self.rqst)

    @property
    def rqst_data_bytes(self) -> Optional[int]:
        """Bytes of data payload carried by the request."""
        if self.rqst_flits is None:
            return None
        return (self.rqst_flits - 1) * FLIT_BYTES

    @property
    def rsp_data_bytes(self) -> Optional[int]:
        """Bytes of data payload carried by the response."""
        if self.rsp_flits is None:
            return None
        return max(0, (self.rsp_flits - 1) * FLIT_BYTES)


def _info(
    name: str,
    kind: CommandKind,
    rqst_flits: Optional[int],
    rsp_flits: Optional[int],
    rsp_cmd: hmc_response_t,
) -> CommandInfo:
    return CommandInfo(hmc_rqst_t[name], kind, rqst_flits, rsp_flits, rsp_cmd)


def _build_table() -> Dict[int, CommandInfo]:
    R = CommandKind.READ
    W = CommandKind.WRITE
    PW = CommandKind.POSTED_WRITE
    A = CommandKind.ATOMIC
    PA = CommandKind.POSTED_ATOMIC
    F = CommandKind.FLOW
    M = CommandKind.MODE
    RD_RS = hmc_response_t.RD_RS
    WR_RS = hmc_response_t.WR_RS
    NONE = hmc_response_t.RSP_NONE

    rows = [
        # Flow control: single-FLIT, never answered.
        _info("FLOW_NULL", F, 1, 0, NONE),
        _info("PRET", F, 1, 0, NONE),
        _info("TRET", F, 1, 0, NONE),
        _info("IRTRY", F, 1, 0, NONE),
        # Mode register access.
        _info("MD_WR", M, 2, 1, hmc_response_t.MD_WR_RS),
        _info("MD_RD", M, 1, 2, hmc_response_t.MD_RD_RS),
    ]
    # Reads: 16..128 bytes, then the Gen2 256-byte read.
    for i, name in enumerate(
        ["RD16", "RD32", "RD48", "RD64", "RD80", "RD96", "RD112", "RD128"]
    ):
        rows.append(_info(name, R, 1, 2 + i, RD_RS))
    rows.append(_info("RD256", R, 1, 17, RD_RS))
    # Writes and posted writes: payload FLITs = size/16.
    for i, name in enumerate(
        ["WR16", "WR32", "WR48", "WR64", "WR80", "WR96", "WR112", "WR128"]
    ):
        rows.append(_info(name, W, 2 + i, 1, WR_RS))
    rows.append(_info("WR256", W, 17, 1, WR_RS))
    for i, name in enumerate(
        ["P_WR16", "P_WR32", "P_WR48", "P_WR64", "P_WR80", "P_WR96", "P_WR112", "P_WR128"]
    ):
        rows.append(_info(name, PW, 2 + i, 0, NONE))
    rows.append(_info("P_WR256", PW, 17, 0, NONE))
    # Gen2 atomics (Table I of the paper).
    rows += [
        _info("TWOADD8", A, 2, 1, WR_RS),
        _info("ADD16", A, 2, 1, WR_RS),
        _info("P_2ADD8", PA, 2, 0, NONE),
        _info("P_ADD16", PA, 2, 0, NONE),
        _info("TWOADDS8R", A, 2, 2, RD_RS),
        _info("ADDS16R", A, 2, 2, RD_RS),
        _info("INC8", A, 1, 1, WR_RS),
        _info("P_INC8", PA, 1, 0, NONE),
        _info("XOR16", A, 2, 2, RD_RS),
        _info("OR16", A, 2, 2, RD_RS),
        _info("NOR16", A, 2, 2, RD_RS),
        _info("AND16", A, 2, 2, RD_RS),
        _info("NAND16", A, 2, 2, RD_RS),
        _info("CASGT8", A, 2, 2, RD_RS),
        _info("CASLT8", A, 2, 2, RD_RS),
        _info("CASGT16", A, 2, 2, RD_RS),
        _info("CASLT16", A, 2, 2, RD_RS),
        _info("CASEQ8", A, 2, 2, RD_RS),
        _info("CASZERO16", A, 2, 2, RD_RS),
        _info("EQ8", A, 2, 1, WR_RS),
        _info("EQ16", A, 2, 1, WR_RS),
        _info("BWR", A, 2, 1, WR_RS),
        _info("P_BWR", PA, 2, 0, NONE),
        _info("BWR8R", A, 2, 2, RD_RS),
        _info("SWAP16", A, 2, 2, RD_RS),
    ]
    # CMC codes: lengths are plugin-defined at registration time.
    for code in CMC_CODES:
        rows.append(
            CommandInfo(
                hmc_rqst_t(code),
                CommandKind.CMC,
                None,
                None,
                hmc_response_t.RSP_CMC,
            )
        )

    table = {row.code: row for row in rows}
    if len(table) != 128:
        raise AssertionError(f"command table has {len(table)} entries, expected 128")
    return table


#: Complete command metadata table, keyed by 7-bit command code.
COMMAND_TABLE: Dict[int, CommandInfo] = _build_table()

#: The same table as a dense tuple indexed by command code — the cycle
#: engine's hot-path lookup (no hashing, no bounds arithmetic beyond the
#: index itself).
COMMAND_TABLE_LIST: Tuple[CommandInfo, ...] = tuple(
    COMMAND_TABLE[code] for code in range(1 << CMD_FIELD_WIDTH)
)


def command_info(rqst: "hmc_rqst_t") -> CommandInfo:
    """Return the :class:`CommandInfo` row for a request enum member."""
    return COMMAND_TABLE[int(rqst)]


def command_for_code(code: int) -> CommandInfo:
    """Return the :class:`CommandInfo` row for a raw 7-bit command code.

    Raises:
        KeyError: if ``code`` is outside ``0..127``.
    """
    if not 0 <= code < (1 << CMD_FIELD_WIDTH):
        raise KeyError(f"command code {code} outside the 7-bit command space")
    return COMMAND_TABLE_LIST[code]


def is_cmc_code(code: int) -> bool:
    """True if ``code`` is one of the 70 unused (CMC-eligible) codes."""
    return code in _CMC_CODE_SET


_CMC_CODE_SET = frozenset(CMC_CODES)


def cmc_rqst_for_code(code: int) -> "hmc_rqst_t":
    """Return the ``CMCnn`` enum member for an unused command code.

    Raises:
        ValueError: if ``code`` is a specification-defined command.
    """
    if not is_cmc_code(code):
        raise ValueError(f"command code {code} is defined by the HMC specification")
    return hmc_rqst_t(code)
