"""E1 — Table I: HMC-Sim 2.0 Gen2 additional command support.

Regenerates the command/FLIT table and round-trips a packet through
build/encode/decode for every Gen2 command it lists (the machinery
Table I documents).
"""

from conftest import emit

from repro.analysis.tables import render_table1
from repro.hmc.commands import COMMAND_TABLE, CommandKind
from repro.hmc.packet import RequestPacket


def _roundtrip_all_commands() -> int:
    n = 0
    for info in COMMAND_TABLE.values():
        if info.kind is CommandKind.CMC or info.rqst_flits is None:
            continue
        data = bytes(info.rqst_data_bytes or 0)
        pkt = RequestPacket.build(info.rqst, 0x1000, 1, data=data)
        back = RequestPacket.decode(pkt.encode())
        assert back.cmd == info.code
        n += 1
    return n


def test_table1_commands(artifact_dir):
    count = _roundtrip_all_commands()
    assert count == 58  # every specification-defined command
    emit(artifact_dir, "table1_commands", render_table1())
