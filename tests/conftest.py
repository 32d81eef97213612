"""Shared fixtures for the HMC-Sim reproduction test suite."""

from __future__ import annotations

import pytest

from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim


@pytest.fixture(scope="session", autouse=True)
def private_sweep_cache(tmp_path_factory):
    """Point the default sweep cache (``REPRO_CACHE_DIR``, which child
    processes inherit) at a directory of this session's own, so no test
    reads or writes the user's cache and none passes on entries an older
    tree wrote."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("sweepcache")))
        yield


@pytest.fixture
def cfg4() -> HMCConfig:
    """The paper's 4Link-4GB configuration."""
    return HMCConfig.cfg_4link_4gb()


@pytest.fixture
def cfg8() -> HMCConfig:
    """The paper's 8Link-8GB configuration."""
    return HMCConfig.cfg_8link_8gb()


@pytest.fixture
def sim(cfg4: HMCConfig) -> HMCSim:
    """A fresh 4Link-4GB simulation context."""
    return HMCSim(cfg4)


@pytest.fixture
def sim_with_mutex(sim: HMCSim) -> HMCSim:
    """A context with the three mutex CMC ops loaded."""
    from repro.cmc_ops.mutex import load_mutex_ops

    load_mutex_ops(sim)
    return sim


def roundtrip(sim: HMCSim, pkt, *, link: int = 0, max_cycles: int = 64):
    """Send one request and clock until its response arrives."""
    from repro.errors import HMCStatus

    status = sim.send(pkt, link=link)
    assert status is HMCStatus.OK, f"send stalled: {status}"
    for _ in range(max_cycles):
        sim.clock()
        rsp = sim.recv(link=link)
        if rsp is not None:
            return rsp
    raise AssertionError(f"no response within {max_cycles} cycles")


def with_flow(config: HMCConfig, flow) -> HMCSim:
    """A context running the link-flow model ``flow``.  Its parameters
    (token counts, retry latency, error models) are not seam keys, so
    the model is set on the built context."""
    sim = HMCSim(config)
    sim.flow = flow
    return sim


@pytest.fixture
def do_roundtrip():
    """Fixture exposing the one-request round-trip helper."""
    return roundtrip


def run_workload(name: str, cfg: HMCConfig, *, sim=None, fault_plan=None, **params):
    """Run the registered workload ``name`` once; ``params`` are its
    registry parameters (``run_workload("gups", cfg, threads=4)``)."""
    from repro.workloads.registry import WORKLOADS

    return WORKLOADS.get(name).run(cfg, params, sim=sim, fault_plan=fault_plan)
