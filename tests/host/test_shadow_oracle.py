"""Online sampled oracle: shadow execution inside the host engine.

``HostEngine(oracle_sample=N)`` holds roughly one in ``N``
response-expecting requests in a quiesced window, executes it against
the functional reference model, and raises
:class:`~repro.errors.OracleDivergenceError` with a deadlock-style dump
on any disagreement.  These tests pin the sampling contract, the
planted-divergence failure path, and neutrality across both xbar
datapaths.
"""

from dataclasses import replace as dc_replace

import pytest

from repro.errors import HMCSimError, OracleDivergenceError
from repro.faults.plan import FaultPlan
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from tests.conftest import run_workload


def read_program(ctx, addr=0, count=4):
    for i in range(count):
        yield ctx.read(addr + i * 64, 16)


def write_then_read(ctx):
    yield ctx.write(0x2000, bytes(range(16)))
    yield ctx.read(0x2000, 16)


class TestSampling:
    def test_sample_one_checks_every_candidate(self, sim):
        engine = HostEngine(sim, oracle_sample=1)
        engine.add_threads(4, read_program)
        result = engine.run()
        assert result.oracle_checks == 16
        assert all(t.responses == 4 for t in result.threads)

    def test_sparse_sampling_checks_fewer(self, sim):
        engine = HostEngine(sim, oracle_sample=8)
        engine.add_threads(4, read_program)  # 16 candidate requests
        result = engine.run()
        assert 0 < result.oracle_checks < 16

    def test_write_read_roundtrip_verifies(self, sim):
        engine = HostEngine(sim, oracle_sample=1)
        engine.add_thread(write_then_read)
        result = engine.run()
        assert result.oracle_checks >= 1
        assert result.threads[0].responses == 2

    def test_off_by_default(self, sim):
        engine = HostEngine(sim)
        engine.add_threads(2, read_program)
        assert engine.run().oracle_checks == 0

    def test_sample_must_be_positive(self, sim):
        with pytest.raises(HMCSimError, match="sample"):
            HostEngine(sim, oracle_sample=0)

    def test_incompatible_with_faults(self):
        sim = HMCSim(
            HMCConfig.cfg_4link_4gb(),
            faults=FaultPlan.parse(["xbar_drop=0.01"], seed=1),
        )
        with pytest.raises(HMCSimError, match="fault"):
            HostEngine(sim, oracle_sample=4)


class TestMutexKernel:
    def test_mutex_workload_shadowed(self, cfg4):
        stats = run_workload("mutex", cfg4, threads=12, oracle_sample=4)
        assert stats.oracle_checks > 0
        # Every thread still completes its critical section: at least
        # one lock acquisition and one unlock each.
        assert stats.cmc_executions >= 24

    def test_mutex_workload_sample_one(self, cfg4):
        stats = run_workload("mutex", cfg4, threads=8, oracle_sample=1)
        assert stats.oracle_checks > 0
        assert stats.cmc_executions >= 16


class TestDatapathNeutrality:
    @pytest.mark.parametrize("xbar", ["queued", "vector"])
    def test_checks_pass_on_both_xbars(self, xbar):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar=xbar))
        engine = HostEngine(sim, oracle_sample=2)
        engine.add_threads(6, lambda ctx: read_program(ctx, count=3))
        result = engine.run()
        assert result.oracle_checks > 0
        assert all(t.responses == 3 for t in result.threads)

    @pytest.mark.parametrize("xbar", ["queued", "vector"])
    def test_results_unchanged_by_shadowing(self, xbar):
        # The oracle must not perturb observable per-thread results —
        # only scheduling (hold windows serialize sampled requests).
        def run(sample):
            sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar=xbar))
            engine = HostEngine(sim, oracle_sample=sample)
            engine.add_threads(4, write_then_read)
            result = engine.run()
            return [(t.requests, t.responses) for t in result.threads]

        assert run(None) == run(4)


class TestPlantedDivergence:
    def test_planted_divergence_raises_with_dump(self, sim, monkeypatch):
        from repro.oracle import model

        real = model.Oracle.execute

        def crooked(self, pkt, **kw):
            exp = real(self, pkt, **kw)
            if exp.has_rsp and exp.data:
                exp = dc_replace(
                    exp, data=bytes(b ^ 0xFF for b in exp.data)
                )
            return exp

        monkeypatch.setattr(model.Oracle, "execute", crooked)
        engine = HostEngine(sim, oracle_sample=1)
        engine.add_thread(read_program)
        with pytest.raises(OracleDivergenceError) as exc:
            engine.run()
        text = str(exc.value)
        assert "sampled request" in text
        assert "expected" in text and "actual" in text
        assert "deadlock diagnostic" in text

    def test_errstat_divergence_detected(self, sim, monkeypatch):
        from repro.oracle import model

        real = model.Oracle.execute

        def crooked(self, pkt, **kw):
            exp = real(self, pkt, **kw)
            return dc_replace(exp, errstat=0x31) if exp.has_rsp else exp

        monkeypatch.setattr(model.Oracle, "execute", crooked)
        engine = HostEngine(sim, oracle_sample=1)
        engine.add_thread(read_program)
        with pytest.raises(OracleDivergenceError, match="divergence"):
            engine.run()
