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
    """Packets on the inter-cube wire are in flight: neither call takes
    a chained context until it is drained."""

    def test_component_selection_in_fingerprint(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        for seam in ("xbar", "vault_scheduler", "link_flow"):
            assert seam in doc["config"]
        other = HMCSim(HMCConfig.cfg_4link_4gb(vault_scheduler="round_robin"))
        with pytest.raises(HMCSimError, match="does not match"):
            restore_checkpoint(other, p)


class TestFaultStateRoundtrip:
    """The fault subsystem checkpoints at an idle, collected point: its
    per-kind counts travel, and the plan is part of the fingerprint.

    A response-destroying fault leaves its tag outstanding (and the
    controller recording it lost) until the host abandons it, so a
    faulty context is checkpointable once every lost tag is abandoned.
    """

    def _faulty_pair(self):
        from repro.faults.plan import FaultPlan

        def build():
            return HMCSim(
                HMCConfig.cfg_4link_4gb(),
                faults=FaultPlan.parse(["xbar_drop=1.0"]),
            )

        return build(), build()

    def _lose_and_abandon(self, sim, tag=7):
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x40, tag))
        sim.drain()  # the response is dropped at the retire port
        assert (0, tag) in sim.faults.lost_tags
        assert sim.abandon_tag(0, tag)
        assert not sim.faults.lost_tags

    def test_fault_counts_roundtrip(self, tmp_path):
        sim, sim2 = self._faulty_pair()
        self._lose_and_abandon(sim)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        restore_checkpoint(sim2, p)
        assert sim2.faults.counts == sim.faults.counts == {"rsp_drop": 1}
        assert sim2.stats() == sim.stats()

    def test_fault_state_needs_matching_plan(self, tmp_path):
        from repro.faults.plan import FaultPlan

        sim, _ = self._faulty_pair()
        self._lose_and_abandon(sim)
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

    def test_version2_file_is_refused(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.mem_write(0x100, b"legacy")
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        doc["version"] = 2
        p.write_text(json.dumps(doc))
        sim2 = HMCSim(cfg4)
        with pytest.raises(HMCSimError, match="version 2.*supported versions: 6;"):
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


def _on_the_wire() -> HMCSim:
    """A chained context with a request travelling between cubes."""
    sim = HMCSim(HMCConfig.cfg_4link_4gb(num_devs=2))
    sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x80, 3, cub=1))
    while not sim.topology.in_transit:
        sim.clock()
    return sim


def _uncollected() -> HMCSim:
    """An idle context whose answered response the host never received."""
    sim = HMCSim(HMCConfig.cfg_4link_4gb())
    sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x40, 5))
    sim.drain()
    assert sim.devices[0].links[0].pending_responses() == 1
    return sim


def _outstanding() -> HMCSim:
    """An idle, collected context whose one tag a fault left unanswered."""
    from repro.faults.plan import FaultPlan

    sim = HMCSim(
        HMCConfig.cfg_4link_4gb(), faults=FaultPlan.parse(["xbar_drop=1.0"])
    )
    sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x40, 7))
    sim.drain()
    assert sim.idle() and sim.recv() is None
    assert sim.stats()["outstanding"] == 1
    return sim


#: Each state a checkpoint refuses, and the phrase naming it.
_NOT_COLLECTED = {
    "wire": (_on_the_wire, "packets on the inter-cube wire"),
    "retired": (_uncollected, "uncollected responses in a link's retire buffer"),
    "outstanding": (_outstanding, "outstanding tags"),
}


class TestIdleContract:
    """Both calls take an idle, collected context only, and name what
    else they found: a checkpoint serializes no packet and no tag."""

    @pytest.mark.parametrize("state", sorted(_NOT_COLLECTED))
    def test_save_refuses(self, state, tmp_path):
        build, phrase = _NOT_COLLECTED[state]
        with pytest.raises(HMCSimError, match=f"cannot checkpoint a context with {phrase} — drain"):
            save_checkpoint(build(), tmp_path / "cp.json")
        assert not (tmp_path / "cp.json").exists()

    @pytest.mark.parametrize("state", sorted(_NOT_COLLECTED))
    def test_restore_refuses(self, state, tmp_path):
        build, phrase = _NOT_COLLECTED[state]
        target = build()
        source = HMCSim(target.config)
        if target.faults is not None:
            source.attach_faults(target.faults.plan)
        source.mem_write(0x40, b"\x09" * 16)
        p = save_checkpoint(source, tmp_path / "cp.json")
        before = target.stats()
        with pytest.raises(HMCSimError, match=f"cannot restore into a context with {phrase} — drain"):
            restore_checkpoint(target, p)
        # Refused before any write: the target keeps what it holds.
        assert target.stats() == before
        assert target.mem_read(0x40, 16) != b"\x09" * 16


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
        assert "supported versions: 6;" in msg  # every supported version
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

    @pytest.mark.parametrize("key", ["config", "sim"])
    def test_missing_top_level_key(self, cfg4, tmp_path, key):
        p = save_checkpoint(HMCSim(cfg4), tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        del doc[key]
        p.write_text(json.dumps(doc))
        with pytest.raises(HMCSimError, match=f"cp.json is malformed: missing key '{key}'"):
            restore_checkpoint(HMCSim(cfg4), p)

    def test_malformed_nested_value(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.mem_write(0, b"x")
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        doc["sim"]["pages"] = [[0]]
        p.write_text(json.dumps(doc))
        with pytest.raises(HMCSimError, match="cp.json is malformed: ValueError"):
            restore_checkpoint(HMCSim(cfg4), p)

    def test_unknown_register_is_named(self, cfg4, tmp_path):
        sim = HMCSim(cfg4)
        sim.jtag_reg_write(0, HMC_REG["EDR3"], 5)
        p = save_checkpoint(sim, tmp_path / "cp.json")
        p.write_text(p.read_text().replace('"EDR3"', '"EDRX"'))
        with pytest.raises(HMCSimError) as exc:
            restore_checkpoint(HMCSim(cfg4), p)
        assert "unknown register 'EDRX'" in str(exc.value)
        assert "missing key" not in str(exc.value)

    def test_file_naming_memory_and_topology_seams_is_refused(self, cfg4, tmp_path):
        # Files written while memory and topology were seams carry
        # their selections in the fingerprint, which no target has now.
        p = save_checkpoint(HMCSim(cfg4), tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        doc["config"].update(memory="paged", topology="chain")
        p.write_text(json.dumps(doc))
        with pytest.raises(HMCSimError, match="does not match") as exc:
            restore_checkpoint(HMCSim(cfg4), p)
        assert "memory: checkpoint has 'paged'" in str(exc.value)
        assert "topology: checkpoint has 'chain'" in str(exc.value)

    def _refused_by_name(self, cfg4, tmp_path, version):
        sim = HMCSim(cfg4)
        sim.mem_write(0x40, b"\x03" + bytes(15))
        p = save_checkpoint(sim, tmp_path / "cp.json")
        doc = json.loads(p.read_text())
        doc["version"] = version
        p.write_text(json.dumps(doc))
        target = HMCSim(cfg4)
        with pytest.raises(
            HMCSimError,
            match=f"cp.json has version {version}.*supported versions: 6;",
        ):
            restore_checkpoint(target, p)
        assert target.mem_read(0x40, 16) == bytes(16)  # refused before any write

    def test_version3_file_is_refused_by_name(self, cfg4, tmp_path):
        self._refused_by_name(cfg4, tmp_path, 3)

    def test_version4_file_is_refused_by_name(self, cfg4, tmp_path):
        self._refused_by_name(cfg4, tmp_path, 4)

    def test_version5_file_is_refused_by_name(self, cfg4, tmp_path):
        # A v5 file may carry in-flight state (wire packets, retired
        # responses, outstanding or lost tags, a watchdog or an oracle
        # image) that this reader would silently drop.
        self._refused_by_name(cfg4, tmp_path, 5)
