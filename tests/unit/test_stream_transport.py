"""Tests for how ``repro.telemetry-stream/v1`` frames travel.

A frame is a dict.  At ``--jobs 1`` the shipper hands it straight to the
plane; in a pool each worker pickles it down its own result pipe in one
non-blocking, all-or-nothing write, next to its results.  The shipper
drops (and counts) what it cannot send and never blocks; the supervisor
treats EOF or an unreadable message on a pipe as that worker being gone;
the aggregator tolerates out-of-order sequence numbers (docs/OBSERVE.md).
"""

import os
import select
import struct
import time

import pytest

from repro.config import SimulationConfig
from repro.harness import supervision
from repro.harness.campaign import CampaignConfig, CampaignEngine
from repro.harness.chaos import CHAOS_ENV
from repro.harness.runner import ExperimentSpec
from repro.harness.supervision import (
    TRANSIENT,
    RetryPolicy,
    SupervisedPool,
    _frame_sender,
    classify_failure,
    run_attempt,
)
from repro.telemetry.live import (
    STREAM_FORMAT,
    LiveStatusPlane,
    StreamAggregator,
    TelemetryShipper,
    read_stream_log,
)

TINY = SimulationConfig(warmup_cycles=50, measure_cycles=200,
                        drain_cycles=150, deadlock_abort_cycles=300)


def tiny_spec(rate=0.05):
    return ExperimentSpec(design="spin_mesh", pattern="uniform",
                          injection_rate=rate, mesh_side=4, tdd=32, sim=TINY)


def frame(type_="heartbeat", worker=7, seq=1, **fields):
    payload = {"type": type_, "worker": worker, "seq": seq, "t": 1.0}
    payload.update(fields)
    return payload


def drain_events(pool, expected, deadline_seconds=30.0):
    collected = []
    deadline = time.monotonic() + deadline_seconds
    while len(collected) < expected:
        assert time.monotonic() < deadline, (
            f"pool produced {len(collected)}/{expected} events in time")
        collected.extend(pool.events(timeout=0.2))
    return collected


@pytest.fixture
def pipe():
    import multiprocessing

    reader, writer = multiprocessing.Pipe(duplex=False)
    yield reader, writer
    reader.close()
    writer.close()


class TestShipperSend:
    def test_frames_reach_send_as_dicts(self):
        sent = []
        shipper = TelemetryShipper(sent.append, worker=5)
        shipper.hello()
        shipper.point_start("k", 0.1, 100, attempt=2)
        assert [f["type"] for f in sent] == ["hello", "point_start"]
        assert sent[0]["schema"] == STREAM_FORMAT
        assert [f["seq"] for f in sent] == [1, 2]
        assert all(f["worker"] == 5 for f in sent)
        assert sent[1]["attempt"] == 2 and sent[1]["key"] == "k"

    def test_blocking_send_drops_and_counts(self):
        def send(data):
            raise BlockingIOError

        shipper = TelemetryShipper(send, worker=1)
        shipper.hello()
        assert shipper.frames_dropped == 1
        assert shipper.alive

    def test_oserror_goes_quiet_forever(self):
        calls = []

        def send(data):
            calls.append(data)
            raise OSError("supervisor gone")

        shipper = TelemetryShipper(send, worker=1)
        shipper.hello()
        assert not shipper.alive
        shipper.point_start("k", 0.1, 100)
        shipper.point_end("k", True, 0.5)
        assert len(calls) == 1  # nothing sent after the transport died

    def test_heartbeat_throttled(self):
        sent = []
        shipper = TelemetryShipper(sent.append, worker=1, interval=3600.0)
        shipper.heartbeat()
        shipper.heartbeat()
        shipper.heartbeat()
        assert len(sent) == 1

    def test_point_end_reports_the_running_drop_count(self):
        sent, full = [], [True]

        def send(data):
            if full[0]:
                raise BlockingIOError
            sent.append(data)

        shipper = TelemetryShipper(send, worker=1)
        shipper.hello()
        shipper.event("dropped_too")
        full[0] = False
        shipper.point_end("k", True, 0.5)
        assert sent[-1]["frames_dropped"] == 2

    def test_progress_needs_a_running_point(self):
        sent = []
        shipper = TelemetryShipper(sent.append, worker=1)
        shipper.update(10, 100, network=None)  # no point: no stats read
        assert sent == []


class TestOutOfOrderSequences:
    def test_stale_seq_refreshes_liveness_but_drops_payload(self):
        agg = StreamAggregator(keys=["k1"], rates=[0.1])
        agg.feed_frames([
            frame("point_start", worker=9, seq=5, key="k1", rate=0.1,
                  cycles_total=100),
            frame("progress", worker=9, seq=6, key="k1", cycles_done=80,
                  cycles_total=100, delivered=8, injected=9, spins=0),
            # A duplicated older progress frame arrives late: its payload
            # must not roll cycles_done back from 80 to 40.
            frame("progress", worker=9, seq=6, key="k1", cycles_done=40,
                  cycles_total=100, delivered=4, injected=5, spins=0),
        ])
        snap = agg.snapshot()
        assert snap["points"]["k1"]["cycles_done"] == 80
        assert agg.counters["frames_stale"] == 1
        assert agg.counters["frames_received"] == 3

    def test_fresh_seq_after_stale_applies(self):
        agg = StreamAggregator(keys=["k1"], rates=[0.1])
        agg.feed_frames([
            frame("point_start", worker=9, seq=2, key="k1", rate=0.1,
                  cycles_total=100),
            frame("heartbeat", worker=9, seq=1),  # stale
            frame("progress", worker=9, seq=3, key="k1", cycles_done=50),
        ])
        assert agg.snapshot()["points"]["k1"]["cycles_done"] == 50

    def test_independent_sequence_spaces_per_worker(self):
        agg = StreamAggregator()
        agg.feed_frames([
            frame("heartbeat", worker=1, seq=5),
            frame("heartbeat", worker=2, seq=1),  # different worker: fresh
        ])
        assert agg.counters.get("frames_stale", 0) == 0


class TestDroppedFramesCounter:
    def test_sums_across_workers(self):
        agg = StreamAggregator(keys=["a", "b"])
        agg.feed_frames([
            frame("point_end", worker=1, seq=1, key="a", ok=True,
                  wall_time=0.1, events={}, frames_dropped=3),
            frame("point_end", worker=2, seq=1, key="b", ok=True,
                  wall_time=0.1, events={}, frames_dropped=3),
        ])
        assert agg.counters["frames_dropped_by_workers"] == 6

    def test_latest_running_total_per_worker(self):
        agg = StreamAggregator(keys=["a", "b"])
        agg.feed_frames([
            frame("point_end", worker=1, seq=1, key="a", ok=True,
                  wall_time=0.1, events={}, frames_dropped=2),
            frame("point_end", worker=1, seq=2, key="b", ok=True,
                  wall_time=0.1, events={}, frames_dropped=5),
        ])
        assert agg.counters["frames_dropped_by_workers"] == 5

    def test_absent_while_nothing_dropped(self):
        agg = StreamAggregator(keys=["a"])
        agg.feed_frames([frame("point_end", worker=1, seq=1, key="a",
                               ok=True, wall_time=0.1, events={},
                               frames_dropped=0)])
        assert "frames_dropped_by_workers" not in agg.counters


class TestPipeFrameSender:
    def test_frame_arrives_whole_next_to_results(self, pipe):
        reader, writer = pipe
        shipper = TelemetryShipper(_frame_sender(writer), worker=3)
        shipper.hello()
        writer.send(("result", 3, 0, 0, "payload"))
        kind, sent = reader.recv()
        assert kind == "frame" and sent["type"] == "hello"
        assert reader.recv() == ("result", 3, 0, 0, "payload")

    def test_oversized_frame_dropped_and_counted(self, pipe):
        reader, writer = pipe
        shipper = TelemetryShipper(_frame_sender(writer), worker=3)
        shipper.event("huge", blob="x" * select.PIPE_BUF)
        assert shipper.frames_dropped == 1 and shipper.alive
        assert not reader.poll()

    def test_full_pipe_drops_without_blocking_or_tearing(self, pipe):
        reader, writer = pipe
        shipper = TelemetryShipper(_frame_sender(writer), worker=3)
        started = time.monotonic()
        while shipper.frames_dropped == 0:
            assert shipper.seq < 100000, "pipe never filled"
            shipper.event("fill", blob="y" * 512)
        assert time.monotonic() - started < 10.0
        assert shipper.alive
        # The write end is blocking again for the worker's result send.
        assert os.get_blocking(writer.fileno())
        landed = 0
        while reader.poll():
            kind, sent = reader.recv()  # whole frames only, never torn
            assert kind == "frame" and sent["blob"] == "y" * 512
            landed += 1
        assert landed == shipper.seq - shipper.frames_dropped

    def test_closed_reader_silences_the_shipper(self, pipe):
        reader, writer = pipe
        reader.close()
        shipper = TelemetryShipper(_frame_sender(writer), worker=3)
        shipper.hello()
        assert not shipper.alive
        assert shipper.frames_dropped == 0


def _dying_worker(write_last_words, exit_code):
    """A ``_worker_main`` stand-in whose worker sends ``write_last_words``
    on its pipe and dies while running the 0.02 point's first attempt."""
    real_main, real_run = supervision._worker_main, supervision.run_attempt

    def worker_main(task_queue, writer, stream):
        def run(spec, attempt=0, key=None, shipper=None):
            if spec.injection_rate == 0.02 and attempt == 0:
                write_last_words(writer)
                os._exit(exit_code)
            return real_run(spec, attempt, key, shipper)

        supervision.run_attempt = run  # this worker process only
        real_main(task_queue, writer, stream)

    return worker_main


def _torn(writer):
    # A length header promising 1000 bytes, then only four of them.
    os.write(writer.fileno(), struct.pack("!i", 1000) + b"torn")


def _garbage(writer):
    writer.send_bytes(b"not a pickle")


class TestPerWorkerPipe:
    @pytest.mark.parametrize("last_words", [_torn, _garbage],
                             ids=["torn", "garbage"])
    def test_unreadable_last_message_fails_only_that_task(
            self, monkeypatch, last_words):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        monkeypatch.setattr(supervision, "_worker_main",
                            _dying_worker(last_words, 7))
        counters = {}
        pool = SupervisedPool(max_workers=2, counters=counters).start()
        try:
            victim, bystander = tiny_spec(0.02), tiny_spec(0.05)
            pool.submit(0, 0, victim)
            pool.submit(1, 0, bystander)
            events = {task: result
                      for task, _, result in drain_events(pool, 2)}
            assert events[1].ok
            assert events[0].error == "worker crashed: exit code 7"
            assert classify_failure(events[0].error) == TRANSIENT
            pool.submit(0, 1, victim)  # the retry, on a respawned worker
            (_, attempt, retried), = drain_events(pool, 1)
            assert attempt == 1 and retried.ok
        finally:
            pool.stop()
        assert counters["workers_respawned"] == 1

    def test_result_sent_just_before_death_is_kept(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)

        def send_then_exit(task_queue, writer, stream):
            task_id, attempt, spec, key = task_queue.get(timeout=30)
            result = supervision.run_attempt(spec, attempt, key)
            writer.send(("result", os.getpid(), task_id, attempt, result))
            os._exit(5)

        monkeypatch.setattr(supervision, "_worker_main", send_then_exit)
        counters = {}
        pool = SupervisedPool(max_workers=1, counters=counters).start()
        try:
            pool.submit(0, 0, tiny_spec())
            (process,) = pool._workers.values()
            process.join(timeout=30)
            assert not process.is_alive()
            # Seen dead before its pipe was read: the result must still
            # land, not be failed as "worker crashed".
            out = []
            pool._check_workers(out)
        finally:
            pool.stop(force=True)
        (task_id, attempt, result), = out
        assert (task_id, attempt) == (0, 0)
        assert result.ok and result.error is None
        assert counters["workers_respawned"] == 1

    def test_frames_land_before_their_result(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        spec = tiny_spec()
        plane = LiveStatusPlane(tmp_path, keys=["k"], rates=[0.05])
        plane.start()
        pool = SupervisedPool(max_workers=1, stream=plane).start()
        try:
            pool.submit(0, 0, spec, "k")
            (_, _, result), = drain_events(pool, 1)
            # Same pipe, sent first: point_end is in before the result.
            frames = read_stream_log(tmp_path / "stream.jsonl")
        finally:
            pool.stop()
            plane.stop()
        assert result.ok
        types = [f["type"] for f in frames]
        assert types[0] == "hello"
        assert types.count("point_start") == types.count("point_end") == 1
        end = frames[types.index("point_end")]
        assert end["key"] == "k" and end["ok"] is True

    def test_torn_worker_retried_by_the_engine(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        specs = tiny_spec().curve([0.02, 0.05, 0.08])
        serial = CampaignEngine(specs).run()
        monkeypatch.setattr(supervision, "_worker_main",
                            _dying_worker(_torn, 7))
        config = CampaignConfig(jobs=2, retry=RetryPolicy(retries=1,
                                                          base=0.01))
        report = CampaignEngine(specs, config=config).run()
        assert report.completed and report.clean
        assert report.points == serial.points
        assert report.counters["retries"] == 1


class TestRunAttemptKeyAndShipper:
    def test_given_key_is_not_recomputed(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "fail@1:p=1.0")  # consulted, spared

        def no_key(self):
            raise AssertionError("content_key() recomputed")

        spec = tiny_spec()
        monkeypatch.setattr(ExperimentSpec, "content_key", no_key)
        assert run_attempt(spec, 0, "engine-key").ok

    def test_shipper_brackets_the_attempt(self, monkeypatch):
        from repro.telemetry.live import progress_sink

        monkeypatch.delenv(CHAOS_ENV, raising=False)
        sent = []
        shipper = TelemetryShipper(sent.append, worker=1)
        result = run_attempt(tiny_spec(), 1, "k", shipper)
        assert result.ok
        assert sent[0]["type"] == "point_start"
        assert sent[0]["attempt"] == 1
        assert sent[0]["cycles_total"] == TINY.total_cycles
        assert sent[-1]["type"] == "point_end" and sent[-1]["ok"] is True
        assert {f["key"] for f in sent} == {"k"}
        assert progress_sink() is None

    def test_failed_attempt_ends_not_ok(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        sent = []
        spec = ExperimentSpec(design="spin_mesh", pattern="nonexistent",
                              injection_rate=0.05, mesh_side=4, sim=TINY)
        result = run_attempt(spec, 0, "k", TelemetryShipper(sent.append))
        assert not result.ok
        assert sent[-1]["type"] == "point_end" and sent[-1]["ok"] is False
