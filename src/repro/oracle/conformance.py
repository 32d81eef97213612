"""One-call conformance check for a CMC plugin (``docs/PLUGIN_GUIDE.md`` §6)."""

from __future__ import annotations

import os
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import Union

from repro.core.loader import load_cmc
from repro.errors import OracleDivergenceError
from repro.hmc.config import CONFIGS
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from repro.oracle.differ import run_trace
from repro.oracle.trafficgen import PROFILES, generate_trace

__all__ = ["CMCOpCheck", "check_cmc_op"]


@dataclass(frozen=True)
class CMCOpCheck:
    """The verdict of a passing :func:`check_cmc_op`; ``str()`` reads it."""

    op_name: str
    #: Requests of the op the differ matched, over every trace.
    requests: int
    #: Shadow comparisons the online oracle made (0 when not sampled).
    oracle_checks: int
    #: Why the op was not shadow-sampled ("" when it was).
    not_sampled: str = ""

    def __str__(self) -> str:
        line = (
            f"{self.op_name}: {self.requests} requests match the oracle on "
            f"{', '.join(CONFIGS)}; "
        )
        if self.not_sampled:
            return line + f"not sampled: {self.not_sampled}"
        return line + f"{self.oracle_checks} responses shadow-checked"


def check_cmc_op(source: Union[str, os.PathLike]) -> CMCOpCheck:
    """Check the CMC op at ``source`` (module name or ``.py`` path).

    The statics must validate; two 96-request CMC-heavy traces of the op
    per configuration must pass the oracle-vs-engine differ; and when the op
    declares ``FOOTPRINT`` (and has a response), each trace's requests
    of the op are replayed from four host threads at ``oracle_sample=1``.

    Raises:
        CMCLoadError: the statics do not validate.
        ValueError: the op declares no ``FOOTPRINT`` and the traffic
            generator has no placement discipline for it.
        OracleDivergenceError: the engine disagreed with the oracle.
    """
    source = os.fspath(source)
    reg = load_cmc(source).registration
    profile = dc_replace(PROFILES["cmc"], cmc_modules=(source,))
    not_sampled = ""
    if reg.footprint is None:
        not_sampled = "declares no FOOTPRINT"
    elif reg.posted:
        not_sampled = "posted, so there is no response to compare"
    requests = oracle_checks = 0
    for config_name in CONFIGS:
        for seed in range(2):
            trace = generate_trace(
                seed, profile=profile, count=96, config_name=config_name
            )
            result = run_trace(trace)
            if not result.ok:
                raise OracleDivergenceError(
                    f"{reg.op_name} diverged from the oracle on {config_name} "
                    f"seed {seed}:\n"
                    + "\n".join(m.describe() for m in result.mismatches)
                )
            mine = [r for r in trace.requests if r.cmd == reg.cmd]
            requests += len(mine)
            if not_sampled:
                continue
            sim = HMCSim(trace.config())
            sim.load_cmc(source)
            for addr, data in trace.preloads:
                sim.mem_write(addr, data)

            def program(ctx):
                for r in mine[ctx.tid :: 4]:
                    yield ctx.request(reg.rqst, r.addr, r.data)

            engine = HostEngine(sim, oracle_sample=1)
            engine.add_threads(4, program)
            oracle_checks += engine.run().oracle_checks
    return CMCOpCheck(reg.op_name, requests, oracle_checks, not_sampled)
