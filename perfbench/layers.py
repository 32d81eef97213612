"""The layer boundaries the traced run times, and the per-layer metrics.

Layers are the repository's modules.  :data:`BOUNDARIES` names, for each,
the public entry point that is wrapped (see :mod:`perfbench.trace`);
:func:`layer_metrics` turns the accumulated times and the simulated
counters of every :class:`~repro.hmc.sim.HMCSim` built during the traced
pass into the metrics listed under ``per_layer`` in ``BENCHMARK.json``.
A metric whose boundary no longer exists is ``None``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from perfbench.trace import Tracer

__all__ = ["BOUNDARIES", "LayerProbe", "layer_metrics"]

#: (boundary, target, keeps span records).  Boundaries entered more than
#: ~10^4 times per pass only accumulate.
BOUNDARIES = [
    ("host.engine.run", "repro.host.engine:HostEngine.run", True),
    ("host.thread.resume", "repro.host.thread:SimThread.resume", False),
    ("host.openloop", "repro.host.openloop:drive_open_loop", True),
    ("hmc.packet.build", "repro.hmc.packet:RequestPacket.build", False),
    ("hmc.crc", "repro.hmc.crc:packet_crc", False),
    ("hmc.sim.send", "repro.hmc.sim:HMCSim.send", False),
    ("hmc.sim.clock", "repro.hmc.sim:HMCSim.clock", False),
    ("hmc.sim.drain", "repro.hmc.sim:HMCSim.drain", False),
    ("hmc.sim.recv", "repro.hmc.sim:HMCSim.recv_batch", False),
    ("hmc.sim.recv", "repro.hmc.sim:HMCSim.recv", False),
    ("hmc.device.clock", "repro.hmc.device:Device.clock", False),
    ("hmc.vault.step", "repro.hmc.vault:Vault.step", False),
    ("hmc.vault.process_rqst", "repro.hmc.vault:process_rqst", False),
    ("core.cmc.execute", "repro.core.cmc:CMCRegistry.execute", False),
    ("hmc.vector.device_cycle", "repro.hmc.vector.engine:VectorXBar.device_cycle", False),
    ("hmc.vector.vault_phase", "repro.hmc.vector.batch:BatchExecutor.vault_phase", False),
    ("hmc.vector.fast_send", "repro.hmc.vector.engine:VectorXBar.fast_send", False),
    # No public spill counter exists; the private hand-off is counted.
    ("hmc.vector.spill", "repro.hmc.vector.engine:VectorXBar._spill", False),
    ("hmc.checkpoint.restore", "repro.hmc.checkpoint:restore_checkpoint", True),
    ("serve.schemas.codec", "repro.serve.schemas:decode_message", False),
    ("serve.schemas.codec", "repro.serve.schemas:encode_value", False),
    ("serve.schemas.codec", "repro.serve.schemas:canonical_json", False),
    ("serve.client.rpc", "repro.serve.client:ServeClient.submit", True),
    ("parallel.cache.get", "repro.parallel.cache:SweepCache.get", False),
    ("parallel.cache.put", "repro.parallel.cache:SweepCache.put", False),
    ("parallel.tasks.cache_key", "repro.parallel.tasks:cache_key", False),
    ("parallel.pool.run", "repro.parallel.pool:SweepExecutor.run", True),
    ("cli.main", "repro.cli:main", True),
]

#: metric -> (boundary, field); the rest are derived in layer_metrics().
_DIRECT = {
    "workloads.run_s": ("workloads.run", "total"),
    "workloads.self_s": ("workloads.run", "self"),
    "workloads.runs": ("workloads.run", "calls"),
    "hmc.sim.init_s": ("hmc.sim.init", "total"),
    "hmc.sim.inits": ("hmc.sim.init", "calls"),
    "host.engine.run_s": ("host.engine.run", "total"),
    "host.engine.self_s": ("host.engine.run", "self"),
    "host.engine.runs": ("host.engine.run", "calls"),
    "host.thread.resume_s": ("host.thread.resume", "total"),
    "host.thread.resumes": ("host.thread.resume", "calls"),
    "host.openloop.self_s": ("host.openloop", "self"),
    "hmc.packet.build_s": ("hmc.packet.build", "total"),
    "hmc.packet.builds": ("hmc.packet.build", "calls"),
    "hmc.crc.busy_s": ("hmc.crc", "total"),
    "hmc.crc.calls": ("hmc.crc", "calls"),
    "hmc.sim.send_s": ("hmc.sim.send", "total"),
    "hmc.sim.sends": ("hmc.sim.send", "calls"),
    "hmc.sim.clock_s": ("hmc.sim.clock", "total"),
    "hmc.sim.clocks": ("hmc.sim.clock", "calls"),
    "hmc.sim.drain_s": ("hmc.sim.drain", "total"),
    "hmc.device.clock_self_s": ("hmc.device.clock", "self"),
    "hmc.vault.step_s": ("hmc.vault.step", "total"),
    "hmc.vault.steps": ("hmc.vault.step", "calls"),
    "hmc.vault.process_rqst_s": ("hmc.vault.process_rqst", "total"),
    "hmc.vault.process_rqsts": ("hmc.vault.process_rqst", "calls"),
    "core.cmc.execute_s": ("core.cmc.execute", "total"),
    "core.cmc.executes": ("core.cmc.execute", "calls"),
    "hmc.sim.recv_s": ("hmc.sim.recv", "total"),
    "hmc.sim.recvs": ("hmc.sim.recv", "calls"),
    "hmc.vector.device_cycle_s": ("hmc.vector.device_cycle", "total"),
    "hmc.vector.vault_phase_s": ("hmc.vector.vault_phase", "total"),
    "hmc.vector.fast_send_s": ("hmc.vector.fast_send", "total"),
    "hmc.vector.spills": ("hmc.vector.spill", "calls"),
    "hmc.checkpoint.save_s": ("hmc.checkpoint.save", "total"),
    "hmc.checkpoint.saves": ("hmc.checkpoint.save", "calls"),
    "serve.schemas.codec_s": ("serve.schemas.codec", "total"),
    "serve.schemas.codec_calls": ("serve.schemas.codec", "calls"),
    "serve.session.accept_s": ("serve.session.accept", "total"),
    "serve.session.execute_s": ("serve.session.execute", "total"),
    "serve.session.execute_self_s": ("serve.session.execute", "self"),
    "serve.client.rpc_s": ("serve.client.rpc", "total"),
    "parallel.cache.get_s": ("parallel.cache.get", "total"),
    "parallel.cache.gets": ("parallel.cache.get", "calls"),
    "parallel.cache.put_s": ("parallel.cache.put", "total"),
    "parallel.tasks.cache_key_s": ("parallel.tasks.cache_key", "total"),
}

_PROBED = (
    "hmc.checkpoint.restore_s",
    "serve.session.journal_bytes",
    "serve.session.late_over_early",
    "parallel.pool.run_s_jobs1",
    "parallel.pool.run_s_jobs2",
    "parallel.pool.speedup",
    "cli.interp_s",
    "cli.import_s",
    "cli.main_s",
)

#: Boundaries whose self time adds up to the traced pass (trace.self_coverage).
_PASS_LAYERS = sorted(
    {name for name, _, _ in BOUNDARIES}
    | {"workloads.run", "hmc.sim.init", "hmc.checkpoint.save"}
    | {"serve.session.accept", "serve.session.execute"}
)


class LayerProbe:
    """Installs the boundaries and collects what hooks see during a pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Every HMCSim constructed while installed (simulated counters).
        self.sims: List[Any] = []
        self.checkpoint_bytes = 0
        self._accepted: Dict[tuple, int] = {}
        #: Layer self time and HMCSim.clock time of the traced pass alone
        #: (the workload's probes run later and would add to them).
        self.pass_self_s = 0.0
        self.pass_clock_s = 0.0
        self.pass_sims = 0

    def install(self) -> None:
        tracer = self.tracer
        for name, target, span in BOUNDARIES:
            tracer.patch(name, target, span=span)
        tracer.patch(
            "hmc.sim.init", "repro.hmc.sim:HMCSim.__init__", span=True,
            hook=self._on_sim_init,
        )
        tracer.patch(
            "hmc.checkpoint.save", "repro.hmc.checkpoint:save_checkpoint",
            span=True, hook=self._on_checkpoint_save,
        )
        tracer.patch(
            "serve.session.accept", "repro.serve.session:SimSession.accept",
            span=True, hook=self._on_accept,
        )
        tracer.patch(
            "serve.session.execute", "repro.serve.session:SimSession.execute_next",
            span=True, hook=self._on_execute,
        )
        self._patch_workload_runs()

    def _patch_workload_runs(self) -> None:
        # Kernel adapters override WorkloadFrontend.run, so the boundary
        # is each registered class's own run().
        try:
            from repro.workloads.registry import WORKLOADS

            classes = WORKLOADS.classes().values()
        except (ImportError, AttributeError) as exc:
            self.tracer.missing["workloads.run"] = str(exc)
            return
        for cls in classes:
            self.tracer.patch_attr("workloads.run", cls, "run", span=True)

    def pass_done(self) -> None:
        """Call right after the traced pass, before any probe runs."""
        self.pass_self_s = sum(self.tracer.self_s(name) for name in _PASS_LAYERS)
        self.pass_clock_s = self.tracer.total_s("hmc.sim.clock")
        self.pass_sims = len(self.sims)

    # -- hooks -----------------------------------------------------------------

    def _on_sim_init(self, args, result, start, end) -> None:
        self.sims.append(args[0])

    def _on_checkpoint_save(self, args, result, start, end) -> None:
        try:
            self.checkpoint_bytes += os.path.getsize(args[1])
        except (OSError, IndexError, TypeError):
            pass

    def _on_accept(self, args, result, start, end) -> Optional[str]:
        session = args[0]
        self._accepted[(session.name, result)] = end
        return f"{session.name}:{result}"

    def _on_execute(self, args, result, start, end) -> Optional[str]:
        if result is None:
            return None
        session = args[0]
        accepted = self._accepted.pop((session.name, result.seq), None)
        if accepted is not None:
            # accept() returned -> this submission's execute_next() began.
            self.tracer.add("serve.server.queue_wait", max(0, start - accepted))
        return f"{session.name}:{result.seq}"


def _bank_conflicts(sim: Any) -> int:
    return sum(v.bank_conflicts for d in sim.devices for v in d.vaults)


def layer_metrics(
    probe: LayerProbe,
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    sim_cycles: int,
    sim_requests: int,
    extra: Dict[str, Optional[float]],
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced pass (``None`` = boundary gone).

    ``extra`` carries what a workload's probes measured themselves
    (journal bytes, restore time, CLI start-up, pool runs, late/early).
    """
    extra = dict(extra)
    tracer = probe.tracer
    fields = {"total": tracer.total_s, "self": tracer.self_s, "calls": tracer.calls}
    out: Dict[str, Optional[float]] = {}
    for metric, (boundary, field) in _DIRECT.items():
        out[metric] = fields[field](boundary) if tracer.known(boundary) else None
    # Fed by the accept/execute hooks rather than by a boundary of its own.
    out["serve.server.queue_wait_s"] = (
        tracer.total_s("serve.server.queue_wait")
        if tracer.known("serve.session.execute")
        else None
    )

    # Simulated counters, read off every sim the pass constructed.
    # The pass's own sims; cli_sweep's pass runs in children, so there the
    # probes' in-process replicas supply the counters.
    sims = probe.sims[: probe.pass_sims] or probe.sims
    sent = sum(s.sent_rqsts for s in sims)
    stalls = sum(s.send_stalls for s in sims)
    out["sim.cycles"] = float(sim_cycles)
    out["sim.requests"] = float(sim_requests)
    out["hmc.sim.send_stalls"] = float(stalls)
    out["hmc.sim.send_accept_ratio"] = sent / (sent + stalls) if sent + stalls else 1.0
    out["hmc.sim.rsps"] = float(sum(s.recvd_rsps for s in sims))
    try:
        out["hmc.bank.conflicts"] = float(sum(_bank_conflicts(s) for s in sims))
    except AttributeError:
        out["hmc.bank.conflicts"] = None
    queues = [
        q
        for s in sims
        for dev in s.stats()["devices"].values()
        for q in dev["queues"].values()
    ]
    out["hmc.queue.stalls"] = float(sum(q["stalls"] for q in queues))
    out["hmc.queue.high_water"] = float(max((q["high_water"] for q in queues), default=0))

    out["hmc.sim.clock_share"] = (
        probe.pass_clock_s / traced_wall_s if tracer.known("hmc.sim.clock") else None
    )
    batches = tracer.calls("hmc.vector.vault_phase")
    out["hmc.vector.rows_per_batch"] = (
        None
        if not tracer.known("hmc.vector.vault_phase")
        else (sent / batches if batches else 0.0)
    )
    out["hmc.checkpoint.bytes"] = float(probe.checkpoint_bytes)

    # Socket, asyncio and thread hand-off: what is left of a round trip.
    parts = [
        out["serve.client.rpc_s"],
        out["serve.session.accept_s"],
        out["serve.server.queue_wait_s"],
        out["serve.session.execute_s"],
    ]
    out["serve.server.overhead_s"] = (
        None if None in parts else max(0.0, parts[0] - parts[1] - parts[2] - parts[3])
    )
    gets = tracer.calls("parallel.cache.get")
    hits = extra.pop("parallel.cache.hits", 0.0) or 0.0
    out["parallel.cache.hit_ratio"] = hits / gets if gets else 0.0

    # Measured by one workload's probes; 0 where that workload did not run.
    for metric in _PROBED:
        out[metric] = 0.0
    out["trace.self_coverage"] = probe.pass_self_s / traced_wall_s
    out["trace.overhead_pct"] = (traced_wall_s / untraced_wall_s - 1.0) * 100.0
    out.update(extra)
    return out
