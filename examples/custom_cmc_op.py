#!/usr/bin/env python3
"""Authoring a Custom Memory Cube operation from scratch.

The paper's §IV.D user-library walkthrough: write a plugin with the
Table III statics and a ``hmcsim_execute_cmc`` body, save it to a
file, and load it with ``hmc_load_cmc`` — without touching the
simulator core.  The op built here is ``hmc_strchr16``: scan a
16-byte block for a byte value, return the first match index (or -1),
a tiny in-memory search primitive no Gen2 atomic offers.

Run:  python examples/custom_cmc_op.py
"""

import tempfile
import textwrap
from pathlib import Path

from repro import HMCConfig, HMCSim, hmc_rqst_t
from repro.oracle import check_cmc_op

PLUGIN_SOURCE = textwrap.dedent(
    '''
    """hmc_strchr16 - find a byte in a 16-byte block, in-memory."""

    from repro.hmc.commands import hmc_response_t, hmc_rqst_t

    # -- Table III statics ---------------------------------------------
    OP_NAME = "hmc_strchr16"
    RQST = hmc_rqst_t.CMC32          # any of the 70 unused command codes
    CMD = 32
    RQST_LEN = 2                     # head/tail + 16B payload (the needle)
    RSP_LEN = 2                      # head/tail + 16B payload (the index)
    RSP_CMD = hmc_response_t.RD_RS
    RSP_CMD_CODE = 0
    FOOTPRINT = 16                   # bytes read at addr (the block)


    def cmc_str():
        return OP_NAME


    def hmcsim_execute_cmc(hmc, dev, quad, vault, bank, addr, length,
                           head, tail, rqst_payload, rsp_payload):
        """Table IV signature; the needle is the payload's low byte."""
        needle = rqst_payload[0] & 0xFF
        block = hmc.mem_read(addr, 16, dev=dev)
        index = block.find(bytes([needle]))
        rsp_payload[0] = index & 0xFFFFFFFFFFFFFFFF  # -1 -> all-ones
        return 0
    '''
)


def roundtrip(sim, pkt):
    sim.send(pkt)
    while True:
        sim.clock()
        rsp = sim.recv()
        if rsp is not None:
            return rsp


def main():
    sim = HMCSim(HMCConfig.cfg_4link_4gb())

    # Write the plugin to disk and load it by path — the analog of
    # handing dlopen an arbitrary shared-library object.
    with tempfile.TemporaryDirectory() as tmp:
        plugin_path = Path(tmp) / "hmc_strchr16.py"
        plugin_path.write_text(PLUGIN_SOURCE)
        op = sim.load_cmc(str(plugin_path))
        print(f"loaded {op.op_name!r} from {plugin_path.name} "
              f"at command code {op.cmd}")

        sim.mem_write(0x100, b"hybrid mem cube!")
        needle = ord("m")
        payload = needle.to_bytes(8, "little") + bytes(8)
        pkt = sim.build_memrequest(hmc_rqst_t.CMC32, 0x100, 1, data=payload)
        rsp = roundtrip(sim, pkt)
        index = int.from_bytes(rsp.data[:8], "little")
        print(f"hmc_strchr16('m') -> index {index} "
              f"(host check: {b'hybrid mem cube!'.find(b'm')})")
        assert index == b"hybrid mem cube!".find(b"m")

        # A miss returns the all-ones encoding of -1.
        payload = ord("z").to_bytes(8, "little") + bytes(8)
        rsp = roundtrip(sim, sim.build_memrequest(hmc_rqst_t.CMC32, 0x100, 2, data=payload))
        assert rsp.data[:8] == b"\xff" * 8
        print("hmc_strchr16('z') -> not found (-1)")

        # The conformance check: statics, oracle-vs-engine differential
        # traces on both configs, and (FOOTPRINT declared) shadow sampling.
        print(check_cmc_op(plugin_path))

    print(f"\n{len(sim.cmc)} CMC op(s) loaded; "
          f"{sim.cmc.free_codes()[:5]}... command codes still free")


if __name__ == "__main__":
    main()
