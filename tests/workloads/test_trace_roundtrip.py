"""Trace record → replay round-trip, and the JSONL format itself.

The engine is deterministic end to end (tid-order injection, fixed
link drain order, same-cycle reissue), so replaying a recorded run's
per-thread request streams must reproduce the original per-thread
completion cycles *exactly* — on either datapath.  That contract is
what ``repro trace replay`` checks in CI; these tests pin it, plus the
format's serialization and forward-compatibility rules.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import WorkloadError
from repro.hmc.config import HMCConfig
from repro.workloads.registry import WORKLOADS
from repro.workloads.replay import (
    record_workload,
    replay_open_loop,
    replay_trace,
)
from repro.workloads.tracefmt import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceRecord,
    WorkloadTrace,
)


def _record(cfg_name="cfg_4link_4gb", name="mutex", threads=4):
    cfg = getattr(HMCConfig, cfg_name)()
    stats, trace = record_workload(name, cfg, {"threads": threads})
    return cfg, stats, trace


class TestRecord:
    def test_recording_is_passive(self):
        # The recorder hook must not perturb the run it observes.
        cfg = HMCConfig.cfg_4link_4gb()
        stats, trace = record_workload("mutex", cfg, {"threads": 4})
        assert stats == WORKLOADS.get("mutex").run(cfg, {"threads": 4})
        assert trace.baseline_cycles  # per-thread contract captured

    def test_recording_is_deterministic(self):
        _, _, a = _record()
        _, _, b = _record()
        assert a.dumps() == b.dumps()
        assert a.digest() == b.digest()

    def test_header_reconstructs_state(self):
        _, _, trace = _record()
        assert trace.workload == "mutex"
        assert trace.config_name == "4link_4gb"
        assert trace.cmc_modules  # the mutex CMC plugins
        assert len(trace.threads) == 4
        assert trace.params["threads"] == 4

    def test_unrecordable_workload_is_rejected(self):
        with pytest.raises(WorkloadError, match="recorded"):
            record_workload("gups", HMCConfig.cfg_4link_4gb(), {"threads": 2})


class TestRoundTrip:
    @pytest.mark.parametrize("cfg_name", ["cfg_4link_4gb", "cfg_8link_8gb"])
    @pytest.mark.parametrize("name", ["mutex", "ticket"])
    def test_closed_loop_replay_matches_baseline(self, name, cfg_name):
        _, _, trace = _record(cfg_name, name)
        replay = replay_trace(WorkloadTrace.loads(trace.dumps()))
        assert replay.matches_baseline is True
        assert replay.thread_cycles == trace.baseline_cycles
        assert replay.mismatches() == []

    def test_replay_on_vector_engine_matches_baseline(self):
        # The replay contract holds across datapaths: a trace recorded
        # on the scalar engine replays identically on the numpy one.
        pytest.importorskip("numpy")
        _, _, trace = _record()
        cfg = HMCConfig.cfg_4link_4gb(xbar="vector")
        replay = replay_trace(trace, config=cfg)
        assert replay.matches_baseline is True

    def test_serialization_round_trips_exactly(self, tmp_path):
        _, _, trace = _record()
        path = trace.dump(tmp_path / "run.jsonl")
        loaded = WorkloadTrace.load(path)
        assert loaded == trace
        assert loaded.digest() == trace.digest()

    def test_open_loop_replay_injects_every_request(self):
        _, _, trace = _record()
        stats = replay_open_loop(trace, rate=2.0)
        assert stats.injected == len(trace.requests)
        assert stats.completed == stats.injected  # mutex posts nothing
        assert stats.pattern == "trace"

    def test_duration_estimate_covers_warmup_drain(self):
        # Regression: the injection window used to be
        # ``ceil(len / rate)`` alone, which at high offered rates (a)
        # reported achieved_rate far beyond what the links can
        # physically retire, because drain-phase completions were
        # divided by a window that excluded the round trip, and (b)
        # silently dropped trailing records that stalled near the end
        # of the too-short window.
        import math

        from repro.workloads.replay import _replay_warmup

        cfg = HMCConfig.cfg_4link_4gb()
        trace = WorkloadTrace(
            config_name="4link_4gb",
            requests=tuple(
                TraceRecord(cycle=i, tid=0, cmd="RD16", addr=(i % 64) * 64)
                for i in range(512)
            ),
        )
        rate = 64.0
        stats = replay_open_loop(trace, config=cfg, rate=rate)
        assert stats.duration == math.ceil(512 / rate) + _replay_warmup(cfg)
        # Every record injects even though the pure-slot window (8
        # cycles) is shorter than the device round trip.
        assert stats.injected == 512
        assert stats.completed == 512
        # The reported rate respects the physical retire cap.
        assert stats.achieved_rate <= cfg.num_links * cfg.link_rsp_rate

    def test_depth_gated_replay_reports_measured_window(self):
        trace = WorkloadTrace(
            config_name="4link_4gb",
            requests=tuple(
                TraceRecord(cycle=i, tid=0, cmd="RD16", addr=(i % 64) * 64)
                for i in range(256)
            ),
        )
        stats = replay_open_loop(trace, rate=4.0, depth=32)
        assert stats.depth == 32
        assert stats.injected == 256
        assert stats.completed == 256
        # Depth mode rewrites ``duration`` to the measured injection
        # window, so achieved_rate is a real throughput, not an
        # offered-rate echo.
        assert stats.duration >= 1
        assert stats.achieved_rate > 0

    def test_threadless_trace_needs_open_loop(self):
        # A converted Tracer trace has no thread structure; closed-loop
        # replay must refuse it, open-loop must take it.
        trace = WorkloadTrace(
            config_name="4link_4gb",
            requests=tuple(
                TraceRecord(cycle=i, tid=0, cmd="RD16", addr=i * 64)
                for i in range(8)
            ),
        )
        with pytest.raises(WorkloadError, match="open-loop"):
            replay_trace(trace)
        stats = replay_open_loop(trace, rate=1.0)
        assert stats.injected == 8


class TestFormat:
    def test_newer_version_is_rejected(self):
        header = json.dumps(
            {"format": TRACE_FORMAT, "version": TRACE_VERSION + 1}
        )
        with pytest.raises(WorkloadError, match="newer"):
            WorkloadTrace.loads(header + "\n")

    def test_wrong_format_tag_is_rejected(self):
        with pytest.raises(WorkloadError, match="not a workload trace"):
            WorkloadTrace.loads(json.dumps({"format": "something-else"}))

    def test_unknown_line_types_are_skipped(self):
        # Forward compatibility within a major version: a reader must
        # ignore line types it does not know.
        _, _, trace = _record()
        lines = trace.dumps().splitlines()
        lines.insert(1, json.dumps({"type": "annotation", "note": "hi"}))
        loaded = WorkloadTrace.loads("\n".join(lines))
        assert loaded == trace

    def test_unknown_command_name_raises_on_use(self):
        rec = TraceRecord(cycle=0, tid=0, cmd="NOT_A_COMMAND", addr=0)
        with pytest.raises(WorkloadError, match="unknown command"):
            rec.rqst()

    def test_empty_trace_is_rejected(self):
        with pytest.raises(WorkloadError, match="empty"):
            WorkloadTrace.loads("")
