"""HMC-Sim 2.0 reproduction: Hybrid Memory Cube simulation with CMC plugins.

A from-scratch Python implementation of the simulation platform from
*HMC-Sim-2.0: A Simulation Platform for Exploring Custom Memory Cube
Operations* (Leidel & Chen, 2016): a cycle-based HMC Gen2 device
simulator (:mod:`repro.hmc`) extended with the paper's contribution —
the Custom Memory Cube plugin infrastructure (:mod:`repro.core`) that
lets users define new memory-side operations in externally loaded
plugin modules, occupying any of the 70 unused Gen2 command codes,
without touching the simulator core.

Quickstart::

    from repro import HMCSim, HMCConfig, hmc_rqst_t

    sim = HMCSim(HMCConfig.cfg_4link_4gb())
    sim.load_cmc("repro.cmc_ops.lock")          # CMC125: hmc_lock

    pkt = sim.build_memrequest(hmc_rqst_t.INC8, addr=0x1000, tag=1)
    sim.send(pkt, link=0)
    sim.clock(3)
    rsp = sim.recv(link=0)

See the ``examples/`` directory for full scenarios (the paper's mutex
workload, STREAM Triad, GUPS, BFS-with-CAS) and ``benchmarks/`` for
the harnesses that regenerate every table and figure in the paper.
"""

from repro.registry import lazy_exports

__version__ = "2.0.0"

#: Public name -> where it lives, imported on first access: ``import
#: repro`` (and every ``python -m repro``) pays for none of them.
_EXPORTS = {
    "HMCSim": "repro.hmc.sim:HMCSim",
    "HMCConfig": "repro.hmc.config:HMCConfig",
    "HMCStatus": "repro.errors:HMCStatus",
    "hmc_rqst_t": "repro.hmc.commands:hmc_rqst_t",
    "hmc_response_t": "repro.hmc.commands:hmc_response_t",
    "command_info": "repro.hmc.commands:command_info",
    "CommandInfo": "repro.hmc.commands:CommandInfo",
    "CommandKind": "repro.hmc.commands:CommandKind",
    "RequestPacket": "repro.hmc.packet:RequestPacket",
    "ResponsePacket": "repro.hmc.packet:ResponsePacket",
    "TraceLevel": "repro.hmc.trace:TraceLevel",
    "HMCTimingModel": "repro.hmc.timing:HMCTimingModel",
    "HMCPowerModel": "repro.hmc.power:HMCPowerModel",
    "CMCOperation": "repro.core.cmc:CMCOperation",
    "CMCRegistration": "repro.core.cmc:CMCRegistration",
    "CMCRegistry": "repro.core.cmc:CMCRegistry",
    "load_cmc": "repro.core.loader:load_cmc",
    "HMCSimError": "repro.errors:HMCSimError",
    "HMCConfigError": "repro.errors:HMCConfigError",
    "HMCPacketError": "repro.errors:HMCPacketError",
    "CMCError": "repro.errors:CMCError",
    "CMCLoadError": "repro.errors:CMCLoadError",
    "CMCNotActiveError": "repro.errors:CMCNotActiveError",
    "CMCExecutionError": "repro.errors:CMCExecutionError",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
