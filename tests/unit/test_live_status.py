"""Supervisor-side live status: aggregation, classification, rendering.

Covers the supervision edge case from docs/OBSERVE.md — a worker dying
*between* dispatch and its first heartbeat is ``dead`` (never ``hung``)
and keeps its last-known point — plus heartbeat-loss hung detection with
an injectable clock, the rolling ``status.json``, the watch renderer and
the Prometheus exposition.
"""

import json

import pytest

from repro.telemetry.live import (
    STATUS_FORMAT,
    LiveStatusPlane,
    StreamAggregator,
    read_stream_log,
    stream_chrome_trace,
    stream_summary,
)
from repro.telemetry.prometheus import render_exposition, validate_exposition
from repro.telemetry.watch import (
    journal_fallback_status,
    load_status,
    render_status,
    render_watch,
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def frame(type_, worker, seq, **fields):
    payload = {"type": type_, "worker": worker, "seq": seq, "t": 1.0}
    payload.update(fields)
    return payload


class TestWorkerClassification:
    def test_dead_before_first_heartbeat_is_dead_not_hung(self):
        """The satellite: dispatch → die silently → classified dead."""
        clock = FakeClock()
        agg = StreamAggregator(keys=["k1"], rates=[0.1], hang_after=0.5,
                               clock=clock)
        agg.worker_dispatched(41, "k1")
        clock.advance(60.0)  # silence far beyond hang_after
        agg.worker_dead(41)
        worker = agg.snapshot()["workers"]["41"]
        assert worker["state"] == "dead"
        assert worker["point"] == "k1"  # last-known point survives

    def test_dead_flag_wins_over_heartbeat_age(self):
        clock = FakeClock()
        agg = StreamAggregator(keys=["k1"], hang_after=1.0, clock=clock)
        agg.worker_dispatched(42, "k1")
        agg.worker_dead(42)
        clock.advance(1000.0)
        assert agg.snapshot()["workers"]["42"]["state"] == "dead"

    def test_heartbeat_loss_classifies_hung(self):
        clock = FakeClock()
        agg = StreamAggregator(keys=["k1"], hang_after=2.0, clock=clock)
        agg.worker_dispatched(43, "k1")
        agg.feed_frames([frame("point_start", 43, 1, key="k1", rate=0.1,
                               cycles_total=100)])
        assert agg.snapshot()["workers"]["43"]["state"] == "running"
        clock.advance(2.5)  # no frames for longer than hang_after
        assert agg.snapshot()["workers"]["43"]["state"] == "hung"

    def test_heartbeat_recovers_hung_to_running(self):
        clock = FakeClock()
        agg = StreamAggregator(keys=["k1"], hang_after=2.0, clock=clock)
        agg.worker_dispatched(44, "k1")
        clock.advance(3.0)
        assert agg.snapshot()["workers"]["44"]["state"] == "hung"
        agg.feed_frames([frame("heartbeat", 44, 1)])
        assert agg.snapshot()["workers"]["44"]["state"] == "running"

    def test_idle_after_point_end(self):
        clock = FakeClock()
        agg = StreamAggregator(keys=["k1"], clock=clock)
        agg.worker_dispatched(45, "k1")
        agg.feed_frames([
            frame("point_start", 45, 1, key="k1", rate=0.1,
                  cycles_total=10),
            frame("point_end", 45, 2, key="k1", ok=True, wall_time=0.1,
                  events={}),
        ])
        worker = agg.snapshot()["workers"]["45"]
        assert worker["state"] == "idle"
        assert worker["points_done"] == 1

    def test_supervisor_kill_classifies_hung(self):
        clock = FakeClock()
        agg = StreamAggregator(keys=["k1"], clock=clock)
        agg.worker_dispatched(46, "k1")
        agg.worker_hung(46)
        assert agg.snapshot()["workers"]["46"]["state"] == "hung"
        assert agg.counters["workers_hung"] == 1


class TestCampaignRollup:
    def test_progress_and_completion_counts(self):
        agg = StreamAggregator(keys=["a", "b", "c"], rates=[0.1, 0.2, 0.3])
        agg.feed_frames([
            frame("point_start", 1, 1, key="a", rate=0.1,
                  cycles_total=100),
            frame("progress", 1, 2, key="a", cycles_done=60,
                  cycles_total=100, delivered=5, injected=6, spins=1),
        ])
        snap = agg.snapshot()
        assert snap["schema"] == STATUS_FORMAT
        assert snap["campaign"]["total_points"] == 3
        assert snap["campaign"]["running"] == ["a"]
        point = snap["points"]["a"]
        assert point["cycles_done"] == 60
        assert point["delivered"] == 5
        assert point["spins"] == 1

    def test_point_done_is_authoritative(self):
        agg = StreamAggregator(keys=["a"], rates=[0.1])
        agg.point_done("a", False, error_class="SimulationAborted")
        snap = agg.snapshot()
        assert snap["points"]["a"]["status"] == "failed"
        assert snap["points"]["a"]["error_class"] == "SimulationAborted"
        assert snap["campaign"]["failed"] == 1
        assert snap["campaign"]["failure_budget"]["burned"] == 1

    def test_late_frames_never_downgrade_terminal_status(self):
        """A worker's point_start/progress frame applied after the
        engine's authoritative point_done must not reopen the finished
        point in the snapshot."""
        agg = StreamAggregator(keys=["a"], rates=[0.1])
        agg.point_done("a", True, point=_point(), wall_time=0.2)
        agg.feed_frames([
            frame("point_start", 1, 1, key="a", rate=0.1,
                  cycles_total=100),
            frame("progress", 1, 2, key="a", cycles_done=60,
                  cycles_total=100, delivered=1),
        ])
        snap = agg.snapshot()
        assert snap["points"]["a"]["status"] == "ok"
        assert snap["points"]["a"]["delivered"] == 5  # not the stale 1
        assert snap["campaign"]["done"] == 1
        # The frames still proved the worker alive.
        assert snap["workers"]["1"]["state"] in ("running", "idle")

    def test_resumed_points_counted(self):
        agg = StreamAggregator(keys=["a", "b"])
        agg.mark_resumed(["a"])
        snap = agg.snapshot()
        assert snap["points"]["a"]["status"] == "resumed"
        assert snap["campaign"]["resumed"] == 1
        assert snap["campaign"]["ok"] == 1  # resumed counts as done-ok

    def test_point_end_events_merge_into_registry(self):
        agg = StreamAggregator(keys=["a"])
        agg.feed_frames([
            frame("point_end", 1, 1, key="a", ok=True, wall_time=0.2,
                  events={"spins": 3, "probes_sent": 7}),
            frame("point_end", 2, 1, key="a", ok=True, wall_time=0.2,
                  events={"spins": 2}),
        ])
        totals = agg.snapshot()["stream_totals"]
        assert totals["stream_spins"] == 5
        assert totals["stream_probes_sent"] == 7

    def test_bad_event_values_are_skipped_not_raised(self):
        # A frame is worker input: a negative or non-numeric tally must
        # not end the campaign (the plane never takes a sweep down).
        agg = StreamAggregator(keys=["a", "b"])
        agg.feed_frames([
            frame("point_end", 1, 1, key="a", ok=True, wall_time=0.2,
                  events={"spins": -1, "probes_sent": "7",
                          "flit_hops": None, "moves_sent": 2}),
            frame("point_end", 1, 2, key="b", ok=True, wall_time=0.2,
                  events={"spins": 3}),
        ])
        totals = agg.snapshot()["stream_totals"]
        assert totals == {"stream_moves_sent": 2, "stream_spins": 3}

    def test_eta_appears_once_throughput_exists(self):
        clock = FakeClock()
        agg = StreamAggregator(keys=["a", "b", "c"], clock=clock)
        clock.advance(10.0)
        agg.point_done("a", True)
        snap = agg.snapshot()
        assert snap["campaign"]["throughput_pps"] == pytest.approx(0.1)
        assert snap["campaign"]["eta_seconds"] == pytest.approx(20.0)


class TestSaturationVerdict:
    VERDICT = {"cut": True, "cut_rate": 0.3, "sustained_rate": 0.2}

    def test_uncut_before_any_verdict(self):
        agg = StreamAggregator(keys=["a"])
        agg.point_done("a", True)
        assert agg.snapshot()["campaign"]["saturation"] == {
            "cut": False, "cut_rate": None, "sustained_rate": 0.0}

    def test_reports_the_latest_engine_verdict(self):
        agg = StreamAggregator(keys=["a", "b"])
        agg.point_done("a", True, saturation=self.VERDICT)
        agg.point_done("b", False, error_class="ValueError")
        assert agg.snapshot()["campaign"]["saturation"] == self.VERDICT

    def test_resume_carries_the_replayed_verdict(self):
        agg = StreamAggregator(keys=["a", "b"])
        agg.mark_resumed(["a", "b"], saturation=self.VERDICT)
        assert agg.snapshot()["campaign"]["saturation"] == self.VERDICT


class TestLiveStatusPlane:
    def test_status_file_written_and_updated(self, tmp_path):
        plane = LiveStatusPlane(tmp_path, keys=["k1"], rates=[0.1],
                                status_interval=0.05)
        plane.start()
        try:
            assert plane.enabled
            status = load_status(tmp_path)
            assert status["schema"] == STATUS_FORMAT
            assert status["status"] == "running"
        finally:
            plane.stop("completed")
        status = load_status(tmp_path)
        assert status["status"] == "completed"

    def test_start_binds_nothing_and_starts_no_thread(self, tmp_path):
        import threading

        threads = threading.active_count()
        plane = LiveStatusPlane(tmp_path, keys=["k1"])
        plane.start()
        try:
            assert plane.enabled
            assert threading.active_count() == threads
            assert sorted(p.name for p in tmp_path.iterdir()) \
                == ["status.json", "stream.jsonl"]
        finally:
            plane.stop()
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["status.json", "stream.jsonl"]

    def test_ingested_frames_reach_status_and_stream_log(self, tmp_path):
        from repro.telemetry.live import TelemetryShipper

        plane = LiveStatusPlane(tmp_path, keys=["k1"], rates=[0.1])
        plane.start()
        shipper = TelemetryShipper(plane.ingest, worker=777)
        shipper.hello()
        shipper.point_start("k1", 0.1, 1000)
        # Logged as they arrive, before any stop().
        frames = read_stream_log(tmp_path / "stream.jsonl")
        assert [f["type"] for f in frames] == ["hello", "point_start"]
        plane.stop()
        status = load_status(tmp_path)
        assert status["workers"]["777"]["points_done"] == 0
        assert status["points"]["k1"]["status"] == "running"
        assert status["counters"]["frames_received"] == 2

    def test_ingest_rewrites_status_only_when_due(self, tmp_path):
        plane = LiveStatusPlane(tmp_path, keys=["k1"], rates=[0.1],
                                status_interval=3600.0)
        plane.start()
        plane.ingest(frame("hello", 5, 1))  # the first refresh is due
        assert "5" in load_status(tmp_path)["workers"]
        plane.ingest(frame("hello", 6, 1))
        assert "6" not in load_status(tmp_path)["workers"]  # not due
        plane.stop()
        assert "6" in load_status(tmp_path)["workers"]

    def test_stopped_plane_ignores_frames(self, tmp_path):
        plane = LiveStatusPlane(tmp_path, keys=["k1"])
        plane.start()
        plane.stop()
        plane.ingest(frame("hello", 5, 1))
        assert read_stream_log(tmp_path / "stream.jsonl") == []
        assert plane.aggregator.counters.get("frames_received", 0) == 0

    def test_unwritable_directory_degrades_to_unobserved(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        plane = LiveStatusPlane(blocker / "camp", keys=["k1"])
        plane.start()
        assert not plane.enabled
        plane.ingest(frame("hello", 5, 1))  # no raise, no effect
        plane.stop()


class TestStreamLogTools:
    FRAMES = [
        frame("hello", 1, 1),
        frame("point_start", 1, 2, key="a", rate=0.1, cycles_total=100,
              t=1.0),
        frame("progress", 1, 3, key="a", cycles_done=50, t=1.5),
        frame("point_end", 1, 4, key="a", ok=True, wall_time=1.0, t=2.0),
    ]

    def test_summary(self):
        summary = stream_summary(self.FRAMES)
        assert summary["frames"] == 4
        assert summary["by_type"]["point_end"] == 1
        assert summary["workers"]["1"]["points"] == 1
        assert summary["points"]["a"]["ok"] is True

    def test_chrome_trace_slices_and_counters(self):
        trace = stream_chrome_trace(self.FRAMES)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert len(slices) == 1
        assert slices[0]["name"] == "a"
        assert slices[0]["dur"] == pytest.approx(1e6)
        assert len(counters) == 1

    def test_read_stream_log_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        lines = [json.dumps(f) for f in self.FRAMES]
        path.write_text("\n".join(lines) + '\n{"type": "torn')
        assert read_stream_log(path) == self.FRAMES


class TestRendering:
    def snapshot(self):
        clock = FakeClock()
        agg = StreamAggregator(keys=["a", "b"], rates=[0.1, 0.2],
                               max_failures=3, clock=clock)
        agg.worker_dispatched(11, "a")
        agg.feed_frames([
            frame("point_start", 11, 1, key="a", rate=0.1,
                  cycles_total=200),
            frame("progress", 11, 2, key="a", cycles_done=100,
                  cycles_total=200, delivered=9, injected=10, spins=2),
        ])
        return agg.snapshot()

    def test_render_status_shows_workers_and_points(self):
        text = render_status(self.snapshot(), directory="camp")
        assert "campaign camp" in text
        assert "1/2" not in text  # 0 done so far
        assert "[r.]" in text  # a running, b pending
        assert "11" in text and "running" in text
        assert "delivered=9" in text

    def test_render_watch_missing_directory(self, tmp_path):
        text = render_watch(tmp_path / "nope")
        assert "no status.json or manifest.json" in text

    def test_journal_fallback_from_manifest(self, tmp_path):
        from repro.config import SimulationConfig
        from repro.harness.campaign import CampaignJournal, write_manifest
        from repro.harness.runner import ExperimentSpec

        sim = SimulationConfig(warmup_cycles=10, measure_cycles=20,
                               drain_cycles=20, deadlock_abort_cycles=50)
        specs = [ExperimentSpec(design="spin_mesh", pattern="uniform",
                                injection_rate=r, mesh_side=4, sim=sim)
                 for r in (0.01, 0.02)]
        write_manifest(tmp_path, specs, {"design": "spin_mesh"})
        journal = CampaignJournal(tmp_path)
        journal.open()
        journal.append({"key": specs[0].content_key(), "attempt": 0,
                        "status": "ok", "point": _point().to_dict(),
                        "wall_time": 0.5})
        journal.close()
        status = journal_fallback_status(tmp_path)
        assert status["campaign"]["total_points"] == 2
        assert status["campaign"]["done"] == 1
        text = render_status(status, tmp_path)
        assert "[#.]" in text


class TestPrometheus:
    def test_exposition_lints_clean(self):
        agg = StreamAggregator(keys=["a", "b"], rates=[0.1, 0.2])
        agg.worker_dispatched(21, "a")
        agg.feed_frames([
            frame("point_start", 21, 1, key="a", rate=0.1,
                  cycles_total=100),
            frame("point_end", 21, 2, key="a", ok=True, wall_time=0.5,
                  events={"spins": 4}),
        ])
        agg.point_done("a", True)
        text = render_exposition(agg.snapshot())
        assert validate_exposition(text) == []
        assert "repro_campaign_points_total 2" in text
        assert 'repro_workers{state="idle"} 1' in text
        assert 'repro_stream_events_total{event="stream_spins"} 4' in text

    def test_validator_catches_malformed_lines(self):
        bad = ("# HELP x helpful\n"
               "# TYPE x wibble\n"
               "x{label=unquoted} 1\n"
               "undeclared_metric 2\n")
        problems = validate_exposition(bad)
        assert any("unknown type" in p for p in problems)
        assert any("bad label pair" in p or "malformed" in p
                   for p in problems)
        assert any("undeclared" in p for p in problems)

    def test_nan_eta_is_valid(self):
        agg = StreamAggregator(keys=["a"])
        text = render_exposition(agg.snapshot())
        assert "repro_campaign_eta_seconds NaN" in text
        assert validate_exposition(text) == []


def _point():
    from repro.stats.sweep import SweepPoint

    return SweepPoint(injection_rate=0.01, mean_latency=10.0,
                      p99_latency=20.0, throughput=0.01,
                      delivery_ratio=1.0, wedged=False, delivered=5,
                      events={"spins": 0}, cycles=50)
