"""Component registry and per-seam contract tests.

Every implementation registered under a seam must honour that seam's
interface contract — these tests parametrize over the *live* registry,
so a third-party component registered before the suite runs is held to
the same invariants as the built-ins.  The digest-parity tests at the
bottom pin the refactor's semantic guarantees: the ``ideal`` crossbar
and the ``round_robin`` scheduler may change *timing*, but on the
parity workloads (single-location mutex traffic, commutative GUPS XOR
updates) they must reach bit-identical memory state.
"""

import hashlib

import pytest

from repro.cmc_ops.mutex import init_lock, load_mutex_ops
from repro.errors import ComponentError, HMCAddressError, HMCConfigError
from repro.hmc.commands import hmc_rqst_t
from repro.hmc.components import (
    _SEAM_SPEC,
    COMPONENTS,
    SEAMS,
    CrossbarModel,
    LinkFlow,
    MemoryModel,
    TopologyRouter,
    VaultScheduler,
    create,
    register_component,
    seam_registry,
)
from repro.hmc.config import HMCConfig
from repro.hmc.sim import HMCSim
from repro.host.engine import HostEngine
from repro.host.kernels.gups import gups_program, hpcc_random_stream
from repro.host.kernels.mutex_kernel import mutex_program
from repro.parallel.tasks import component_fingerprint
from tests.conftest import roundtrip

_IFACE = {
    "xbar": CrossbarModel,
    "vault_scheduler": VaultScheduler,
    "link_flow": LinkFlow,
    "topology": TopologyRouter,
    "memory": MemoryModel,
}


class TestRegistry:
    # The register/lookup/fingerprint contract every registry shares is
    # in tests/test_registry.py; these are the component seams' own rules.
    def test_every_seam_has_at_least_two_implementations(self):
        assert tuple(COMPONENTS) == SEAMS
        for seam in SEAMS:
            assert len(COMPONENTS[seam].keys()) >= 2, seam

    def test_unknown_seam_rejected(self):
        with pytest.raises(ComponentError, match="unknown seam"):
            seam_registry("warp_drive")
        with pytest.raises(ComponentError, match="unknown seam"):
            register_component("warp_drive", "x")(lambda: None)

    def test_unregistered_key_lists_known_keys(self):
        with pytest.raises(ComponentError, match="known keys"):
            COMPONENTS["xbar"].get("nope")

    def test_create_enforces_seam_interface(self):
        register_component("xbar", "_bogus")(lambda config, dev: object())
        try:
            with pytest.raises(ComponentError, match="does not implement"):
                create("xbar", "_bogus", HMCConfig.cfg_4link_4gb(), 0)
        finally:
            del COMPONENTS["xbar"]._entries["_bogus"]

    def test_create_allows_none(self):
        # The link_flow seam's "none" baseline: a factory may yield None.
        assert create("link_flow", "none", HMCConfig.cfg_4link_4gb()) is None

    def test_decorator_registers_and_returns_factory(self):
        try:

            @register_component("memory", "_test_tmp")
            class _TmpMem(MemoryModel):
                def __init__(self, capacity):
                    self.capacity = capacity

                def read(self, addr, nbytes):
                    return bytes(nbytes)

                def write(self, addr, data):
                    pass

                def view(self, base, size):
                    return self

                def iter_resident(self):
                    return iter(())

                def clear(self):
                    pass

            assert COMPONENTS["memory"].has("_test_tmp")
            made = create("memory", "_test_tmp", 64)
            assert isinstance(made, _TmpMem)
            # ...and the key is immediately valid in HMCConfig.
            cfg = HMCConfig.cfg_4link_4gb(memory="_test_tmp")
            assert cfg.memory == "_test_tmp"
            # ...and fingerprints through the registry, not a declaration.
            assert COMPONENTS["memory"].identity("_test_tmp").endswith(".<locals>._TmpMem")
            assert component_fingerprint(cfg) != component_fingerprint(
                HMCConfig.cfg_4link_4gb()
            )
        finally:
            del COMPONENTS["memory"]._entries["_test_tmp"]

    def test_declared_identities_are_the_registered_ones(self):
        # A config validates and fingerprints its built-in selections
        # from the declared table, importing no datapath: the table must
        # name every built-in and what its import really registers.
        declared = {(seam, k): v for seam in SEAMS for k, v in _SEAM_SPEC[seam][2].items()}
        live = {
            (seam, key): COMPONENTS[seam].identity(key)
            for seam in SEAMS
            for key, impl in COMPONENTS[seam].classes().items()  # imports all
            if impl.__module__.startswith("repro.")
        }
        assert len(declared) == 11
        assert live == declared

    def test_config_rejects_unregistered_selection(self):
        for field in ("xbar", "vault_scheduler", "link_flow", "topology", "memory"):
            with pytest.raises(HMCConfigError, match="known keys"):
                HMCConfig.cfg_4link_4gb(**{field: "not_a_thing"})


# ---------------------------------------------------------------------------
# Per-seam contracts, parametrized over the live registry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", COMPONENTS["xbar"].keys())
class TestCrossbarContract:
    def _make(self, key, depth=4):
        try:
            return create(
                "xbar", key, HMCConfig.cfg_4link_4gb(xbar_depth=depth), 0
            )
        except ComponentError as exc:
            if "numpy" in str(exc):
                # xbar='vector' without the optional [vector] extra:
                # the key is registered (degradation is part of its
                # contract) but the engine cannot be built here.
                pytest.skip(str(exc))
            raise

    def test_implements_interface(self, key):
        xb = self._make(key)
        assert isinstance(xb, CrossbarModel)
        # The contract is what Device uses and no more.  Half of it is
        # state (Device moves the entries itself), which an ABC can
        # only annotate, so the instance is checked for it.
        assert CrossbarModel.__abstractmethods__ == {"inject", "push_response"}
        for attr in ("rqst_queues", "rsp_queues", "rqst_occ", "rsp_occ"):
            assert attr in CrossbarModel.__annotations__ and hasattr(xb, attr)

    def test_inject_pop_fifo_per_link(self, key):
        xb = self._make(key)
        for item in ("a", "b", "c"):
            assert xb.inject(1, item)
        assert [len(q) for q in xb.rqst_queues] == [0, 3, 0, 0]
        assert [xb.rqst_queues[1].pop() for _ in range(3)] == ["a", "b", "c"]
        assert xb.rqst_queues[1].pop() is None

    def test_occupancy_counters_track_mutations(self, key):
        xb = self._make(key, depth=2)
        assert xb.rqst_occ + xb.rsp_occ == 0
        xb.inject(0, "r")
        xb.push_response(2, "p")
        assert (xb.rqst_occ, xb.rsp_occ) == (1, 1)
        if key != "ideal":
            # A refused entry stalls and is not counted.
            assert xb.inject(0, "r2") and not xb.inject(0, "r3")
            assert xb.push_response(2, "p2") and not xb.push_response(2, "p3")
            assert (xb.rqst_occ, xb.rsp_occ) == (2, 2)
            assert (xb.rqst_queues[0].stalls, xb.rsp_queues[2].stalls) == (1, 1)

    def test_drain_returns_to_empty(self, key):
        # The device drains the queues itself, so through the device.
        try:
            sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar=key))
        except ComponentError as exc:
            if "numpy" in str(exc):
                pytest.skip(str(exc))
            raise
        xb = sim.devices[0].xbar
        for link in range(4):
            sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x40 * link, link), link=link)
        assert xb.rqst_occ + xb.rsp_occ == 4
        sim.drain()
        assert xb.rqst_occ + xb.rsp_occ == 0
        assert not any(q.stalls for q in sim.devices[0].queues)

    def test_roundtrip_through_simulator(self, key):
        try:
            sim = HMCSim(HMCConfig.cfg_4link_4gb(xbar=key))
        except ComponentError as exc:
            if "numpy" in str(exc):
                pytest.skip(str(exc))
            raise
        sim.mem_write(0x100, bytes(range(16)))
        rsp = roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0x100, 1))
        assert rsp.data == bytes(range(16))


@pytest.mark.parametrize("key", COMPONENTS["vault_scheduler"].keys())
class TestVaultSchedulerContract:
    def test_implements_interface(self, key):
        sched = create(
            "vault_scheduler", key, HMCConfig.cfg_4link_4gb()
        )
        assert isinstance(sched, _IFACE["vault_scheduler"])

    def test_roundtrip_through_simulator(self, key):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(vault_scheduler=key))
        sim.mem_write(0x200, b"\x5a" * 16)
        rsp = roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0x200, 2))
        assert rsp.data == b"\x5a" * 16

    def test_per_bank_fifo_order_preserved(self, key):
        # Two writes then a read, all to one address (one bank): the
        # read must observe the *second* write under every policy —
        # per-bank program order is a scheduler invariant.
        sim = HMCSim(HMCConfig.cfg_4link_4gb(vault_scheduler=key))
        addr = 0x40
        sim.send(sim.build_memrequest(hmc_rqst_t.WR16, addr, 1, data=b"\x01" * 16))
        sim.send(sim.build_memrequest(hmc_rqst_t.WR16, addr, 2, data=b"\x02" * 16))
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, addr, 3))
        sim.drain()
        assert sim.mem_read(addr, 16) == b"\x02" * 16

    def test_drains_a_burst(self, key):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(vault_scheduler=key))
        for i in range(32):
            sim.send(
                sim.build_memrequest(
                    hmc_rqst_t.WR16, i * 0x40, i, data=bytes([i]) * 16
                ),
                link=i % 4,
            )
        sim.drain()
        assert sim.idle()
        for i in range(32):
            assert sim.mem_read(i * 0x40, 16) == bytes([i]) * 16


@pytest.mark.parametrize("key", COMPONENTS["link_flow"].keys())
class TestLinkFlowContract:
    def test_factory_yields_model_or_none(self, key):
        flow = create("link_flow", key, HMCConfig.cfg_4link_4gb())
        if flow is None:
            return  # the baseline "none" composition
        assert isinstance(flow, _IFACE["link_flow"])
        # Credit cycle: acquire consumes, refund/acknowledge return.
        assert flow.try_acquire(0, 0, 2)
        seq = flow.on_transmit(0, 0, 2, "pkt")
        assert not flow.transmission_corrupted(0, 0, seq)  # no error model
        assert not flow.has_pending_replays()
        flow.acknowledge(0, 0, seq)
        # Replay bookkeeping: a NAK schedules a replay, draining clears it.
        assert flow.try_acquire(0, 1, 1)
        seq2 = flow.on_transmit(0, 1, 1, "pkt2")
        flow.negative_acknowledge(0, 1, seq2, cycle=5, tag=9)
        assert flow.has_pending_replays()
        assert 1 in flow.replay_links(0)
        replays = flow.due_replays(0, 1, cycle=1_000)
        assert replays == ["pkt2"]
        assert not flow.has_pending_replays()

    def test_simulation_runs_under_selection(self, key):
        sim = HMCSim(HMCConfig.cfg_4link_4gb(link_flow=key))
        sim.mem_write(0x80, b"\x33" * 16)
        rsp = roundtrip(sim, sim.build_memrequest(hmc_rqst_t.RD16, 0x80, 4))
        assert rsp.data == b"\x33" * 16


@pytest.mark.parametrize("key", COMPONENTS["topology"].keys())
class TestTopologyContract:
    def test_implements_interface(self, key):
        sim = HMCSim(HMCConfig(num_devs=3, capacity=2, topology=key))
        assert isinstance(sim.topology, _IFACE["topology"])

    def test_hop_distance_axioms(self, key):
        sim = HMCSim(HMCConfig(num_devs=3, capacity=2, topology=key))
        topo = sim.topology
        for a in range(3):
            assert topo.hop_distance(a, a) == 0
            for b in range(3):
                assert topo.hop_distance(a, b) == topo.hop_distance(b, a)
                assert topo.hop_distance(a, b) >= 0

    def test_cross_cube_roundtrip(self, key):
        sim = HMCSim(HMCConfig(num_devs=3, capacity=2, topology=key))
        sim.mem_write(0x40, b"\x77" * 16, dev=2)
        sim.send(sim.build_memrequest(hmc_rqst_t.RD16, 0x40, 5, cub=2))
        sim.drain()
        rsp = sim.recv()
        assert rsp is not None and rsp.data == b"\x77" * 16
        assert sim.topology.in_transit == 0
        assert sim.topology.forwarded_requests >= 1


@pytest.mark.parametrize("key", COMPONENTS["memory"].keys())
class TestMemoryContract:
    def _make(self, key, cap=1 << 20):
        return create("memory", key, cap)

    def test_implements_interface_and_capacity(self, key):
        mem = self._make(key)
        assert isinstance(mem, _IFACE["memory"])
        assert mem.capacity == 1 << 20

    def test_cold_reads_are_zero(self, key):
        assert self._make(key).read(0x1234, 64) == bytes(64)

    def test_write_read_roundtrip(self, key):
        mem = self._make(key)
        mem.write(0xFF0, bytes(range(32)))  # straddles a 4 KiB boundary
        assert mem.read(0xFF0, 32) == bytes(range(32))

    def test_bounds_checked(self, key):
        mem = self._make(key)
        with pytest.raises(HMCAddressError):
            mem.read(mem.capacity - 4, 8)
        with pytest.raises(HMCAddressError):
            mem.write(-1, b"x")

    def test_view_rebases(self, key):
        mem = self._make(key)
        view = mem.view(0x10000, 0x1000)
        view.write(0, b"hello")
        assert mem.read(0x10000, 5) == b"hello"
        with pytest.raises(HMCAddressError):
            view.read(0x1000, 1)

    def test_iter_resident_and_clear(self, key):
        mem = self._make(key)
        mem.write(0, b"\x01")
        regions = list(mem.iter_resident())
        assert regions and regions[0][0] == 0
        mem.clear()
        assert list(mem.iter_resident()) == []
        assert mem.read(0, 1) == b"\x00"


# ---------------------------------------------------------------------------
# Digest parity: alternative components preserve memory semantics
# ---------------------------------------------------------------------------


def _mutex_digest(cfg: HMCConfig) -> str:
    sim = HMCSim(cfg)
    load_mutex_ops(sim)
    init_lock(sim, 0x0)
    engine = HostEngine(sim, max_cycles=200_000)
    engine.add_threads(12, lambda ctx: mutex_program(ctx, 0x0))
    engine.run()
    sim.drain()
    return hashlib.sha256(sim.mem_read(0, 16)).hexdigest()


def _gups_digest(cfg: HMCConfig) -> str:
    sim = HMCSim(cfg)
    table_base, table_entries = 1 << 16, 128
    updates = hpcc_random_stream(0x2545F4914F6CDD1D, 48)
    engine = HostEngine(sim, max_cycles=200_000)
    for t in range(4):
        chunk = updates[t * 12 : (t + 1) * 12]
        engine.add_thread(
            lambda ctx, chunk=chunk: gups_program(
                ctx, table_base, table_entries, chunk, True
            )
        )
    engine.run()
    sim.drain()
    return hashlib.sha256(sim.mem_read(table_base, table_entries * 16)).hexdigest()


class TestDigestParity:
    """Alternative compositions reach the same memory state as the
    default on workloads where ordering cannot matter: the mutex hot
    spot serializes on one lock word, and GUPS XOR updates commute."""

    def test_ideal_xbar_preserves_mutex_state(self):
        assert _mutex_digest(HMCConfig.cfg_4link_4gb()) == _mutex_digest(
            HMCConfig.cfg_4link_4gb(xbar="ideal")
        )

    def test_round_robin_scheduler_preserves_mutex_state(self):
        assert _mutex_digest(HMCConfig.cfg_4link_4gb()) == _mutex_digest(
            HMCConfig.cfg_4link_4gb(vault_scheduler="round_robin")
        )

    def test_ideal_xbar_preserves_gups_state(self):
        assert _gups_digest(HMCConfig.cfg_4link_4gb()) == _gups_digest(
            HMCConfig.cfg_4link_4gb(xbar="ideal")
        )

    def test_round_robin_scheduler_preserves_gups_state(self):
        assert _gups_digest(HMCConfig.cfg_4link_4gb()) == _gups_digest(
            HMCConfig.cfg_4link_4gb(vault_scheduler="round_robin")
        )

    def test_chunked_memory_is_digest_identical(self):
        assert _mutex_digest(HMCConfig.cfg_4link_4gb()) == _mutex_digest(
            HMCConfig.cfg_4link_4gb(memory="chunked")
        )
        assert _gups_digest(HMCConfig.cfg_4link_4gb()) == _gups_digest(
            HMCConfig.cfg_4link_4gb(memory="chunked")
        )
