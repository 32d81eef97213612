"""Checkpoint/restore tests."""

import json

import pytest

from repro.errors import HMCSimError, WorkloadError
from repro.hmc.checkpoint import CHECKPOINT_VERSION, restore_checkpoint, save_checkpoint
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.config import HMCConfig
from repro.hmc.registers import HMC_REG
from repro.hmc.sim import HMCSim
from tests.conftest import roundtrip, run_workload, with_flow


class TestSaveRestore:
    def test_roundtrip_preserves_memory(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.mem_write(0x1000, b"checkpointed!" + bytes(3))
        sim.mem_write(1 << 25, b"\xaa" * 64)
        p = save_checkpoint(sim, tmp_path / "cp.json")

        sim2 = HMCSim(cfg4)
        restore_checkpoint(sim2, p)
        assert sim2.mem_read(0x1000, 16) == b"checkpointed!" + bytes(3)
        assert sim2.mem_read(1 << 25, 64) == b"\xaa" * 64
        assert sim2.mem_read(0x2000, 16) == bytes(16)  # untouched stays zero

    def test_roundtrip_preserves_cycle_and_counters(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        p = save_checkpoint(sim, tmp_path / "cp.json")
        sim2 = HMCSim(cfg4)
        restore_checkpoint(sim2, p)
        assert sim2.cycle == sim.cycle
        assert sim2.sent_rqsts == 1
        assert sim2.recvd_rsps == 1

    def test_roundtrip_preserves_registers(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.jtag_reg_write(0, HMC_REG["EDR3"], 0x1234)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        sim2 = HMCSim(cfg4)
        restore_checkpoint(sim2, p)
        assert sim2.jtag_reg_read(0, HMC_REG["EDR3"]) == 0x1234

    def test_restored_context_keeps_working(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.mem_write(0x40, b"\x07" + bytes(7))
        p = save_checkpoint(sim, tmp_path / "cp.json")
        sim2 = HMCSim(cfg4)
        restore_checkpoint(sim2, p)
        rsp = roundtrip(sim2, sim2.build_memrequest(hmc_rqst_t.INC8, 0x40, 1))
        assert sim2.mem_read(0x40, 8) == b"\x08" + bytes(7)

    def test_cmc_ops_reload_with_counters(self, cfg4, tmp_path):
        # The op's *code* is never serialized, but its importable
        # source and execution counter are: restore re-loads the
        # plugin and the cumulative count survives — a warm serve
        # session resumed from checkpoint reports the same
        # cmc_executions an uninterrupted one would.
        sim = HMCSim(cfg4)
        op = sim.load_cmc("repro.cmc_ops.lock")
        op.executions = 7
        p = save_checkpoint(sim, tmp_path / "cp.json")
        sim2 = HMCSim(cfg4)
        restore_checkpoint(sim2, p)
        assert 125 in sim2.cmc
        assert sim2.cmc.get(125).executions == 7

    def test_cmc_ops_already_loaded_counter_restored(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.load_cmc("repro.cmc_ops.lock").executions = 3
        p = save_checkpoint(sim, tmp_path / "cp.json")
        sim2 = HMCSim(cfg4)
        sim2.load_cmc("repro.cmc_ops.lock")  # pre-loaded by the caller
        restore_checkpoint(sim2, p)
        assert sim2.cmc.get(125).executions == 3


class TestLabelAndAtomicity:
    def test_meta_label_travels_inside_the_file(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json", meta={"through": 7})
        assert json.loads(p.read_text())["version"] == CHECKPOINT_VERSION
        assert restore_checkpoint(HMCSim(cfg4), p) == {"through": 7}

    def test_unlabelled_checkpoint_is_unchanged(self, cfg4, tmp_path):
        p = save_checkpoint(HMCSim(cfg4), tmp_path / "cp.json")
        assert "meta" not in json.loads(p.read_text())
        assert restore_checkpoint(HMCSim(cfg4), p) is None

    def test_interrupted_save_keeps_the_previous_file(
        self, cfg4, tmp_path, monkeypatch
    ):
        # save_checkpoint used to write_text() in place: a kill
        # mid-write left a truncated file no restart could load.
        sim = HMCSim(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json", meta={"through": 1})
        before = p.read_bytes()
        sim.mem_write(0x1000, b"\x55" * 64)

        def die(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("os.replace", die)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(sim, p, meta={"through": 2})
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["cp.json"]


class TestMidFlightTopology:
    """Version 2: packets on the inter-cube wire checkpoint and restore."""

    def _wait_for_wire(self, sim, attr):
        # Clock until packets sit only on the topology wire (devices
        # quiesced), which is the earliest checkpointable mid-flight state.
        for _ in range(50):
            sim.clock()
            if getattr(sim.topology, attr) and not any(
                d.busy() for d in sim.devices
            ):
                return True
        return False

    def test_request_wire_roundtrip(self, tmp_path):
        cfg = HMCConfig.cfg_4link_4gb(num_devs=2)
        sim = HMCSim(cfg)
        sim.mem_write(0x80, b"\x05" + bytes(15), dev=1)
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x80, 3, cub=1))
        assert self._wait_for_wire(sim, "_rqst_wire")
        assert sim.topology.in_transit == 1

        p = save_checkpoint(sim, tmp_path / "cp.json")
        # A wire entry's unknown fields (the dropped chain_hops) are
        # ignored on restore.
        doc = json.loads(p.read_text())
        doc["sim"]["topology"]["rqst_wire"][0]["chain_hops"] = 1
        p.write_text(json.dumps(doc))
        sim2 = HMCSim(cfg)
        restore_checkpoint(sim2, p)
        assert sim2.cycle == sim.cycle
        assert sim2.topology.in_transit == 1
        assert sim2.topology.forwarded_requests == sim.topology.forwarded_requests

        # Both contexts finish the round trip identically.
        sim.drain()
        sim2.drain()
        r1, r2 = sim.recv(), sim2.recv()
        assert r1 is not None and r2 is not None
        assert (r1.tag, r1.data, r1.retire_cycle) == (r2.tag, r2.data, r2.retire_cycle)
        assert sim.cycle == sim2.cycle

    def test_response_wire_roundtrip(self, tmp_path):
        cfg = HMCConfig.cfg_4link_4gb(num_devs=2)
        sim = HMCSim(cfg)
        sim.mem_write(0x40, b"\xbe" * 16, dev=1)
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x40, 9, cub=1))
        assert self._wait_for_wire(sim, "_rsp_wire")

        p = save_checkpoint(sim, tmp_path / "cp.json")
        sim2 = HMCSim(cfg)
        restore_checkpoint(sim2, p)
        sim.drain()
        sim2.drain()
        r1, r2 = sim.recv(), sim2.recv()
        assert r1 is not None and r2 is not None
        assert r1.data == r2.data == b"\xbe" * 16
        assert sim.cycle == sim2.cycle

    def test_component_selection_in_fingerprint(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        for seam in ("xbar", "vault_scheduler", "link_flow", "topology", "memory"):
            assert seam in doc["config"]
        other = HMCSim(HMCConfig.cfg_4link_4gb(vault_scheduler="round_robin"))
        with pytest.raises(HMCSimError, match="does not match"):
            restore_checkpoint(other, p)


class TestFaultStateRoundtrip:
    """Version 3: the fault subsystem checkpoints mid-flight.

    A response-destroying fault leaves the devices quiesced but the
    host still waiting: the tag is outstanding, the controller records
    it lost, and the watchdog counts down to a retransmission.  All of
    that must survive a save/restore bit-identically.
    """

    def _faulty_pair(self):
        from repro.faults.plan import FaultPlan

        def build():
            return HMCSim(
                HMCConfig.cfg_4link_4gb(),
                faults=FaultPlan.parse(["xbar_drop=1.0"]),
            )

        return build(), build()

    def _lose_response(self, sim, tag=7):
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x40, tag))
        sim.clock(10)  # the response is dropped at the retire port
        assert (0, tag) in sim.faults.lost_tags
        assert sim._outstanding

    def test_outstanding_and_lost_tags_roundtrip(self, tmp_path):
        sim, sim2 = self._faulty_pair()
        self._lose_response(sim)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        restore_checkpoint(sim2, p)
        assert sim2._outstanding == sim._outstanding
        assert sim2.faults.lost_tags == sim.faults.lost_tags
        assert sim2.faults.counts == sim.faults.counts

    def test_watchdog_state_roundtrips_bit_identically(self, tmp_path):
        from repro.faults.watchdog import TagWatchdog

        sim, sim2 = self._faulty_pair()
        wd = TagWatchdog(timeout=16, max_retries=3)
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0x40, 7)
        sim.send(pkt)
        wd.arm(7, pkt, dev=0, link=0, cycle=sim.cycle)
        sim.clock(10)
        assert (0, 7) in sim.faults.lost_tags
        p = save_checkpoint(sim, tmp_path / "cp.json", watchdog=wd)

        wd2 = TagWatchdog(timeout=16, max_retries=3)
        restore_checkpoint(sim2, p, watchdog=wd2)
        assert wd2.pending() == wd.pending() == (7,)
        assert wd2._armed[7].deadline == wd._armed[7].deadline
        assert wd2._armed[7].attempts == wd._armed[7].attempts
        assert wd2._armed[7].packet.addr == pkt.addr

        # Drive both pairs through the identical retransmission
        # protocol; every observable must stay in lockstep (the drop
        # draws are stateless hashes of the same seed and cycles).
        def step(s, w, cycles=64):
            for _ in range(cycles):
                s.clock()
                for entry in w.poll(s.cycle):
                    if w.exhausted(entry):
                        continue
                    s.abandon_tag(0, entry.tag)
                    s.send(entry.packet, dev=entry.dev, link=entry.link)
                    w.note_retransmit()
                    w.arm(
                        entry.tag, entry.packet,
                        dev=entry.dev, link=entry.link, cycle=s.cycle,
                    )
            return (
                s.cycle, s.sent_rqsts, s.recvd_rsps,
                dict(s.faults.counts), set(s.faults.lost_tags),
                w.timeouts, w.retransmits, w.pending(),
            )

        assert step(sim, wd) == step(sim2, wd2)

    def test_fault_state_needs_matching_plan(self, tmp_path):
        from repro.faults.plan import FaultPlan

        sim, _ = self._faulty_pair()
        self._lose_response(sim)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        bare = HMCSim(HMCConfig.cfg_4link_4gb())
        with pytest.raises(HMCSimError, match="no fault plan"):
            restore_checkpoint(bare, p)
        other = HMCSim(
            HMCConfig.cfg_4link_4gb(),
            faults=FaultPlan.parse(["xbar_drop=0.5"]),
        )
        with pytest.raises(HMCSimError, match="does not match"):
            restore_checkpoint(other, p)

    def test_watchdog_state_needs_watchdog(self, tmp_path):
        from repro.faults.watchdog import TagWatchdog

        sim, sim2 = self._faulty_pair()
        p = save_checkpoint(sim, tmp_path / "cp.json", watchdog=TagWatchdog())
        with pytest.raises(HMCSimError, match="watchdog"):
            restore_checkpoint(sim2, p)

    def test_version2_file_is_refused(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.mem_write(0x100, b"legacy")
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        # Rewrite as a version-2 document: no fault-era keys at all.
        doc["version"] = 2
        del doc["watchdog"]
        p.write_text(json.dumps(doc))
        sim2 = HMCSim(cfg4)
        with pytest.raises(HMCSimError, match="version 2.*supported versions: 5;"):
            restore_checkpoint(sim2, p)
        assert sim2.mem_read(0x100, 6) == bytes(6)  # refused before any write

    def test_fault_free_checkpoint_restores_into_faulty_context(
        self, cfg4, tmp_path
    ):
        from repro.faults.plan import FaultPlan

        sim = HMCSim(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        faulty = HMCSim(
            HMCConfig.cfg_4link_4gb(),
            faults=FaultPlan.parse(["xbar_drop=1.0"]),
        )
        restore_checkpoint(faulty, p)  # fresh controller state is kept
        assert faulty.faults.counts == {}


class TestOracleStateRoundtrip:
    """Version 4: the differential oracle rides along, duck-typed."""

    def _pair(self, cfg):
        from repro.oracle import Oracle

        sim, oracle = HMCSim(cfg), Oracle(cfg)
        for i in range(8):
            data = bytes([i + 1]) * 16
            sim.mem_write(0x100 * i, data)
            oracle.mem_write(0x100 * i, data)
        oracle.registers().write(HMC_REG["EDR3"], 0x77)
        return sim, oracle

    def test_v4_oracle_roundtrips_bit_identically(self, cfg4, tmp_path):
        from repro.oracle import Oracle

        sim, oracle = self._pair(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json", oracle=oracle)
        doc = json.loads(p.read_text())
        assert doc["version"] == CHECKPOINT_VERSION and doc["oracle"] is not None
        sim2, oracle2 = HMCSim(cfg4), Oracle(cfg4)
        restore_checkpoint(sim2, p, oracle=oracle2)
        assert oracle2.snapshot_state() == oracle.snapshot_state()
        assert oracle2.mem_read(0x100, 16) == bytes([2]) * 16
        assert oracle2.registers().read(HMC_REG["EDR3"]) == 0x77

    def test_mid_run_save_restore_continues_identically(self, cfg4, tmp_path):
        from repro.oracle import Oracle

        sim, oracle = self._pair(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json", oracle=oracle)
        sim2, oracle2 = HMCSim(cfg4), Oracle(cfg4)
        restore_checkpoint(sim2, p, oracle=oracle2)
        # The second half of the run plays out on both pairs; the
        # restored pair must stay bit-identical to the original.
        for pair_sim, pair_oracle in ((sim, oracle), (sim2, oracle2)):
            for i in range(8, 16):
                data = bytes([i + 1]) * 16
                pair_sim.mem_write(0x100 * i, data)
                pair_oracle.mem_write(0x100 * i, data)
        assert oracle2.snapshot_state() == oracle.snapshot_state()
        assert sim2.mem_read(0, 0x100 * 16) == sim.mem_read(0, 0x100 * 16)

    def test_v3_file_is_refused(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.mem_write(0x40, b"\x03" + bytes(15))
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        doc["version"] = 3
        doc.pop("oracle")
        p.write_text(json.dumps(doc))
        sim2 = HMCSim(cfg4)
        with pytest.raises(HMCSimError, match="version 3.*supported versions: 5;"):
            restore_checkpoint(sim2, p)
        assert sim2.mem_read(0x40, 16) == bytes(16)  # refused before any write

    def test_oracle_state_needs_oracle(self, cfg4, tmp_path):
        from repro.oracle import Oracle

        sim, oracle = self._pair(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json", oracle=oracle)
        with pytest.raises(HMCSimError, match="oracle"):
            restore_checkpoint(HMCSim(cfg4), p)

    def test_oracle_shape_mismatch_rejected(self, cfg4, cfg8):
        from repro.oracle import Oracle

        doc = Oracle(cfg4).snapshot_state()
        with pytest.raises(HMCSimError, match="shape"):
            Oracle(cfg8).restore_state(doc)


class TestGuards:
    def test_cannot_checkpoint_in_flight(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        with pytest.raises(HMCSimError, match="in flight"):
            save_checkpoint(sim, tmp_path / "cp.json")

    def test_cannot_restore_into_busy_context(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        sim2 = HMCSim(cfg4)
        sim2.send(sim2.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        with pytest.raises(HMCSimError, match="in flight"):
            restore_checkpoint(sim2, p)

    def test_config_mismatch_rejected(self, cfg4, cfg8, tmp_path):
        sim = HMCSim(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        other = HMCSim(cfg8)
        with pytest.raises(HMCSimError, match="does not match"):
            restore_checkpoint(other, p)

    def test_version_mismatch_rejected(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        doc["version"] = CHECKPOINT_VERSION + 1
        p.write_text(json.dumps(doc))
        with pytest.raises(HMCSimError, match="version"):
            restore_checkpoint(HMCSim(cfg4), p)

    def test_checkpoint_is_json(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.mem_write(0, b"x")
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())  # must parse as plain JSON
        assert doc["version"] == CHECKPOINT_VERSION
        assert doc["sim"]["pages"]


class TestBarrierKernel:
    def test_rounds_complete_in_order(self, cfg4):
        stats = run_workload("barrier", cfg4, threads=8, rounds=4)
        assert stats.order_correct
        assert stats.total_cycles > 0

    def test_many_threads(self, cfg4):
        stats = run_workload("barrier", cfg4, threads=20, rounds=3)
        assert stats.order_correct

    def test_needs_two_threads(self, cfg4):
        with pytest.raises(WorkloadError, match="'threads' must be"):
            run_workload("barrier", cfg4, threads=1)

    def test_cost_scales_with_rounds(self, cfg4):
        r2 = run_workload("barrier", cfg4, threads=8, rounds=2)
        r6 = run_workload("barrier", cfg4, threads=8, rounds=6)
        assert r6.total_cycles > r2.total_cycles


class TestRejectionDiagnostics:
    """Rejection messages must be actionable: the serve layer surfaces
    them verbatim to remote clients, so each one names the offending
    version or the exact fingerprint fields that differ."""

    def test_version_error_names_both_sides(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        doc["version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(HMCSimError) as exc:
            restore_checkpoint(HMCSim(cfg4), p)
        msg = str(exc.value)
        assert "99" in msg  # the file's actual version
        assert "supported versions: 5;" in msg  # every supported version
        assert "cp.json" in msg  # which file was rejected

    def test_config_error_names_differing_fields(self, cfg4, cfg8, tmp_path):
        p = save_checkpoint(HMCSim(cfg4), tmp_path / "cp.json")
        with pytest.raises(HMCSimError) as exc:
            restore_checkpoint(HMCSim(cfg8), p)
        msg = str(exc.value)
        assert "num_links" in msg and "capacity" in msg  # the fields that differ
        assert "checkpoint has 4" in msg and "target has 8" in msg
        # Fields that agree must not clutter the diagnostic.
        assert "num_vaults" not in msg and "queue_depth" not in msg

    def test_component_mismatch_names_the_seam(self, cfg4, tmp_path):
        from dataclasses import replace

        p = save_checkpoint(HMCSim(cfg4), tmp_path / "cp.json")
        other = HMCSim(replace(cfg4, vault_scheduler="round_robin"))
        with pytest.raises(HMCSimError) as exc:
            restore_checkpoint(other, p)
        msg = str(exc.value)
        assert "vault_scheduler" in msg
        assert "'round_robin'" in msg

    def test_fault_plan_error_names_seed_and_plan(self, tmp_path):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.parse(["xbar_drop=0.25"], seed=0xAAAA)
        sim = HMCSim(HMCConfig.cfg_4link_4gb(), faults=plan)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        other = HMCSim(
            HMCConfig.cfg_4link_4gb(),
            faults=FaultPlan.parse(["xbar_drop=0.25"], seed=0xBBBB),
        )
        with pytest.raises(HMCSimError) as exc:
            restore_checkpoint(other, p)
        msg = str(exc.value)
        assert "seed: checkpoint has 0xaaaa" in msg
        assert "target has 0xbbbb" in msg


class TestSchedulerStateRoundtrip:
    """A vault scheduler's own state (``round_robin``'s bank pointer)
    is simulator state: restore + re-execute must equal the
    uninterrupted run, which is what serve's restart contract rests on."""

    CFG = HMCConfig.cfg_4link_4gb(vault_scheduler="round_robin")

    def _phase(self, sim, shift):
        # 48 threads x 12 RD16, all to vault 0, spread over its banks:
        # more queued than the vault's per-cycle response budget, so
        # which banks go first decides every thread's completion cycle.
        from repro.host.engine import HostEngine

        def program_for(tid):
            def program(ctx):
                for i in range(12):
                    bank = (tid + i + shift) % 16
                    yield ctx.read(sim.addrmap.encode(vault=0, bank=bank, row=tid))

            return program

        engine = HostEngine(sim)
        for tid in range(48):
            engine.add_thread(program_for(tid))
        result = engine.run()
        sim.drain()
        return [t.cycles for t in result.threads]

    @staticmethod
    def _state(sim):
        return sim.devices[0].vaults[0].scheduler.snapshot_state()

    def test_restart_equals_the_uninterrupted_run(self, tmp_path):
        sim = HMCSim(self.CFG)
        self._phase(sim, 0)
        pointer = self._state(sim)
        p = save_checkpoint(sim, tmp_path / "cp.json")

        restarted = HMCSim(self.CFG)
        assert self._state(restarted) != pointer  # it has moved
        restore_checkpoint(restarted, p)
        assert self._state(restarted) == pointer
        assert self._phase(restarted, 5) == self._phase(sim, 5)


class TestFingerprintCoversAttachedModels:
    """A checkpoint records the parameters of every attached model: the
    bank state it carries means nothing under another timing model."""

    @pytest.mark.parametrize(
        "saved, target, field",
        [
            ({"timing": "open_page"}, {}, "timing"),
            ({}, {"timing": "open_page"}, "timing"),
            ({"power": "energy"}, {}, "power"),
            ({"flow": 0.05}, {"flow": 0.01}, "flow"),
        ],
    )
    def test_model_mismatch_is_refused(self, tmp_path, saved, target, field):
        from repro.hmc.flow import ErrorModel, LinkFlowModel

        def build(models):
            models = dict(models)
            flow = models.pop("flow", None)
            if flow is not None:
                flow = LinkFlowModel(errors=ErrorModel(flow))
            return with_flow(HMCConfig.cfg_4link_4gb(**models), flow)

        p = save_checkpoint(build(saved), tmp_path / "cp.json")
        with pytest.raises(HMCSimError, match=f"does not match.*{field}: "):
            restore_checkpoint(build(target), p)

    def test_timing_error_names_both_sides(self, cfg4, tmp_path):
        timed = HMCSim(HMCConfig.cfg_4link_4gb(timing="open_page"))
        p = save_checkpoint(timed, tmp_path / "cp.json")
        with pytest.raises(HMCSimError) as exc:
            restore_checkpoint(HMCSim(cfg4), p)
        msg = str(exc.value)
        assert "timing: checkpoint has {" in msg and "'t_cl': 2" in msg
        assert "target has no timing" in msg

    def test_watchdog_parameters_are_compared(self, cfg4, tmp_path):
        from repro.faults.watchdog import TagWatchdog

        p = save_checkpoint(HMCSim(cfg4), tmp_path / "cp.json", watchdog=TagWatchdog(timeout=64))
        with pytest.raises(HMCSimError, match="watchdog: checkpoint has .*'timeout': 64"):
            restore_checkpoint(HMCSim(cfg4), p, watchdog=TagWatchdog(timeout=32))


class TestLostTagKindSurvives:
    def test_deadlock_dump_names_the_fault_after_restore(self, tmp_path):
        from repro.hmc.sim import collect_deadlock_dump
        from repro.faults.plan import FaultPlan
        from repro.faults.watchdog import TagWatchdog

        def build():
            sim = HMCSim(
                HMCConfig.cfg_4link_4gb(), faults=FaultPlan.parse(["xbar_drop=1.0"])
            )
            return sim, TagWatchdog(timeout=16, max_retries=0)

        sim, wd = build()
        pkt = sim.build_memrequest(hmc_rqst_t.RD16, 0x40, 7)
        sim.send(pkt)
        wd.arm(7, pkt, dev=0, link=0, cycle=sim.cycle)
        sim.clock(10)  # the response is dropped at the retire port
        p = save_checkpoint(sim, tmp_path / "cp.json", watchdog=wd)

        sim2, wd2 = build()
        restore_checkpoint(sim2, p, watchdog=wd2)
        sim2.clock(16)
        [entry] = wd2.poll(sim2.cycle)
        assert wd2.exhausted(entry)
        dump = collect_deadlock_dump(sim2)
        assert dump.lost_tags == {(0, 7): "rsp_drop"}
        assert "cub0:tag7=rsp_drop" in str(dump)


class TestMalformedFiles:
    """Every unreadable file is an HMCSimError naming the file (and the
    key, when one is missing) — never a bare JSON/Attribute/KeyError."""

    def _write(self, tmp_path, text):
        p = tmp_path / "cp.json"
        p.write_text(text)
        return p

    def test_truncated_file(self, cfg4, tmp_path):
        good = save_checkpoint(HMCSim(cfg4), tmp_path / "good.json").read_text()
        p = self._write(tmp_path, good[: len(good) // 2])
        with pytest.raises(HMCSimError, match="cp.json is not valid JSON"):
            restore_checkpoint(HMCSim(cfg4), p)

    def test_json_array(self, cfg4, tmp_path):
        p = self._write(tmp_path, "[]")
        with pytest.raises(HMCSimError, match="cp.json holds a JSON list"):
            restore_checkpoint(HMCSim(cfg4), p)

    @pytest.mark.parametrize("key", ["config", "sim", "watchdog", "oracle"])
    def test_missing_top_level_key(self, cfg4, tmp_path, key):
        p = save_checkpoint(HMCSim(cfg4), tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        del doc[key]
        p.write_text(json.dumps(doc))
        with pytest.raises(HMCSimError, match=f"cp.json is malformed: missing key '{key}'"):
            restore_checkpoint(HMCSim(cfg4), p)

    def test_missing_nested_key(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0, 1))
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        doc["sim"]["topology"] = {"rsp_wire": [{"ready": 3, "dev": 0}]}
        p.write_text(json.dumps(doc))
        with pytest.raises(HMCSimError, match="cp.json is malformed: missing key 'rsp'"):
            restore_checkpoint(HMCSim(cfg4), p)

    def test_version4_file_is_refused_by_name(self, cfg4, tmp_path):
        p = save_checkpoint(HMCSim(cfg4), tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        doc["version"] = 4
        p.write_text(json.dumps(doc))
        with pytest.raises(HMCSimError, match="cp.json has version 4.*supported versions: 5;"):
            restore_checkpoint(HMCSim(cfg4), p)
