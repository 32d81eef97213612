"""Injector behaviour: ECC, vault stalls, response faults, CMC crashes.

Every test also exercises the subsystem's core guarantee: fault draws
are pure hashes of (seed, stable coordinates), so identical plans
reproduce identical fault histories.
"""

import io

import pytest

from repro.cli import main as cli_main
from repro.cmc_ops.base import LOCK_FREE, lock_struct_unpack
from repro.cmc_ops.mutex import build_lock, load_mutex_ops
from repro.errors import FaultError
from repro.faults.plan import FaultPlan
from repro.hmc.commands import hmc_response_t, hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.registers import HMC_REG
from repro.hmc.sim import HMCSim
from repro.hmc.vault import ERRSTAT_CMC_FAILED, ERRSTAT_ECC_UNCORRECTABLE
from tests.conftest import run_workload


def _faulty_sim(*specs, seed=0xBEEF, config=None):
    return HMCSim(
        config or HMCConfig.cfg_4link_4gb(),
        faults=FaultPlan.parse(list(specs), seed=seed),
    )


class TestDramEcc:
    def test_uncorrectable_read_is_poisoned(self, do_roundtrip):
        sim = _faulty_sim("dram_bitflip=1.0,uncorrectable=1.0")
        payload = bytes(range(16))
        sim.mem_write(0x40, payload)
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0x40, 1))
        assert rsp.dinv == 1
        assert rsp.errstat == ERRSTAT_ECC_UNCORRECTABLE
        # Exactly two bits flipped relative to the stored data.
        diff = sum(
            bin(a ^ b).count("1") for a, b in zip(rsp.data, payload)
        )
        assert diff == 2
        # The device latched the error in its ERR status register.
        assert sim.devices[0].registers.read(HMC_REG["ERR"]) == 1
        assert sim.faults.counts["dram_ecc_uncorrectable"] == 1
        # Memory itself is untouched: the flip happened on the read path.
        assert sim.mem_read(0x40, 16) == payload

    def test_corrected_read_returns_clean_data(self, do_roundtrip):
        sim = _faulty_sim("dram_bitflip=1.0,uncorrectable=0.0")
        payload = bytes(range(16))
        sim.mem_write(0x40, payload)
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0x40, 1))
        assert rsp.dinv == 0
        assert rsp.errstat == 0
        assert rsp.data == payload
        assert sim.faults.counts["dram_ecc_corrected"] == 1
        assert sim.devices[0].registers.read(HMC_REG["ERR"]) == 0

    def test_zero_rate_never_fires(self, do_roundtrip):
        sim = _faulty_sim("dram_bitflip=0.0")
        sim.mem_write(0x40, bytes(16))
        for tag in range(8):
            rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0x40, tag))
            assert rsp.errstat == 0
        assert "dram_ecc_corrected" not in sim.faults.counts

    def test_deterministic_across_contexts(self, do_roundtrip):
        def run():
            sim = _faulty_sim("dram_bitflip=0.3", seed=42)
            sim.mem_write(0, bytes(range(16)) * 4)
            data = []
            for tag in range(16):
                rsp = do_roundtrip(
                    sim, sim.build_memrequest(hmc_rqst_t.RD16, (tag % 4) * 16, tag)
                )
                data.append((rsp.data, rsp.errstat))
            return data, dict(sim.faults.counts)

        assert run() == run()


class TestVaultStall:
    def test_permanent_stall_wedges_the_drain(self):
        from repro.errors import SimDeadlockError

        sim = _faulty_sim("vault_stall=1.0,duration=3")
        for tag in range(4):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, tag))
        # rate=1.0 freezes the vault in every window: the queued work
        # never executes, and the drain guard reports it (with a dump)
        # instead of spinning forever.
        with pytest.raises(SimDeadlockError, match="did not drain"):
            sim.drain(max_cycles=200)
        assert sim.faults.counts.get("vault_stall", 0) > 0

    def test_partial_stall_completes_with_delay(self):
        sim = _faulty_sim("vault_stall=0.5,duration=2", seed=5)
        for tag in range(8):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, tag * 16, tag))
        sim.drain(max_cycles=5000)
        got = 0
        while sim.recv() is not None:
            got += 1
        assert got == 8
        assert sim.faults.counts.get("vault_stall", 0) > 0

    def test_window_keyed_draw_is_order_independent(self):
        plan = FaultPlan.parse(["vault_stall=0.5,duration=4"], seed=3)
        sim = HMCSim(HMCConfig.cfg_4link_4gb(), faults=plan)
        stall = sim.faults.vault
        # Same window same verdict, regardless of query order.
        a = [stall.stalled(0, 2, c) for c in range(16)]
        b = [stall.stalled(0, 2, c) for c in reversed(range(16))]
        assert a == list(reversed(b))
        # Within one window the verdict is constant.
        for w in range(4):
            window = a[w * 4 : (w + 1) * 4]
            assert len(set(window)) == 1


class TestResponseFaults:
    def test_drop_loses_response_and_records_tag(self):
        sim = _faulty_sim("xbar_drop=1.0")
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 5))
        sim.clock(10)
        assert sim.recv() is None
        assert (0, 5) in sim.faults.lost_tags
        assert sim.faults.counts["rsp_drop"] == 1

    def test_dup_delivers_twice(self):
        sim = _faulty_sim("xbar_dup=1.0")
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 5))
        sim.clock(10)
        tags = []
        while True:
            rsp = sim.recv()
            if rsp is None:
                break
            tags.append(rsp.tag)
        assert tags == [5, 5]
        assert sim.faults.counts["rsp_dup"] == 1

    def test_drop_wins_over_dup(self):
        sim = _faulty_sim("xbar_drop=1.0", "xbar_dup=1.0")
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 5))
        sim.clock(10)
        assert sim.recv() is None
        assert sim.faults.counts["rsp_drop"] == 1
        assert "rsp_dup" not in sim.faults.counts


class TestCmcCrash:
    def test_crash_isolated_into_error_response(self, do_roundtrip):
        sim = _faulty_sim("cmc_crash=1.0")
        load_mutex_ops(sim)
        rsp = do_roundtrip(sim, build_lock(sim, 0x0, 1, 1))
        assert rsp.cmd == int(hmc_response_t.RSP_ERROR)
        assert rsp.errstat == ERRSTAT_CMC_FAILED
        assert sim.faults.counts["cmc_crash"] == 1

    def test_native_commands_unaffected(self, do_roundtrip):
        sim = _faulty_sim("cmc_crash=1.0")
        rsp = do_roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        assert rsp.cmd != int(hmc_response_t.RSP_ERROR)

    def test_raising_plugin_is_isolated(self, do_roundtrip):
        # The registry wraps arbitrary plugin exceptions: the vault
        # pipeline converts them into RSP_ERROR instead of crashing.
        sim = HMCSim(HMCConfig.cfg_4link_4gb())
        load_mutex_ops(sim)
        op = sim.cmc.operations()[0]

        def explode(*args, **kwargs):
            raise RuntimeError("plugin bug")

        op.cmc_execute = explode
        rsp = do_roundtrip(sim, build_lock(sim, 0x0, 1, 1))
        assert rsp.cmd == int(hmc_response_t.RSP_ERROR)
        assert rsp.errstat == ERRSTAT_CMC_FAILED

    def test_mutex_kernel_reissues_after_crash(self):
        """Algorithm 1 under crashing plugins: an RSP_ERROR answer
        carries no lock word, so the thread reissues the same op rather
        than decoding it — the run completes, the lock ends free, and
        the faulty point is reproducible."""
        cfg = HMCConfig.cfg_4link_4gb()
        plan = FaultPlan.parse(["cmc_crash=0.2"], seed=3)
        runs = []
        for _ in range(2):
            sim = HMCSim(cfg)
            runs.append(
                run_workload("mutex", cfg, sim=sim, threads=16, fault_plan=plan)
            )
            assert sim.faults.counts["cmc_crash"] > 0
            assert lock_struct_unpack(sim.mem_read(0, 16))[1] == LOCK_FREE
        assert runs[0] == runs[1]
        # Each crashed request was answered, and reissued: every
        # request sent either executed its plugin or crashed.
        crashes = sim.faults.counts["cmc_crash"]
        assert sim.sent_rqsts == runs[0].cmc_executions + crashes
        assert sim.stats()["outstanding"] == 0

    def test_mutex_kernel_cli_survives_crashes(self):
        out = io.StringIO()
        argv = [
            "kernel", "mutex", "--threads", "16",
            "--fault", "cmc_crash=0.2", "--fault-seed", "3",
        ]
        assert cli_main(argv, out=out) == 0
        assert "cmc_crash(rate=0.2)" in out.getvalue()


class TestLinkCrc:
    def test_requires_flow_model(self):
        with pytest.raises(FaultError, match="link_flow"):
            _faulty_sim("link_crc=0.5")

    def test_unifies_error_model_and_counts_retries(self):
        sim = _faulty_sim(
            "link_crc=0.5", seed=123,
            config=HMCConfig.cfg_4link_4gb(link_flow="tokens"),
        )
        assert sim.flow.errors is not None
        for tag in range(20):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, tag * 16, tag))
        sim.drain(max_cycles=5000)
        got = 0
        while sim.recv() is not None:
            got += 1
        assert got == 20
        assert sim.faults.counters()["link_retries"] > 0


class TestStatsSurface:
    def test_stats_gains_faults_key_only_with_plan(self):
        clean = HMCSim(HMCConfig.cfg_4link_4gb())
        assert "faults" not in clean.stats()
        faulty = _faulty_sim("xbar_drop=1.0")
        faulty.send(faulty.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        faulty.clock(5)
        assert faulty.stats()["faults"]["rsp_drop"] == 1

    def test_fault_events_traced(self):
        from repro.hmc.trace import TraceLevel

        sim = _faulty_sim("xbar_drop=1.0")
        sim.tracer.set_level(TraceLevel.FAULT)
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 3))
        sim.clock(5)
        text = sim.tracer.render_all()
        assert "HMCSIM_TRACE : FAULT" in text
        assert "KIND=rsp_drop" in text and "TAG=3" in text
