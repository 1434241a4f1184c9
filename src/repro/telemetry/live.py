"""Live campaign observability: streaming worker telemetry.

The post-hoc telemetry layers (:mod:`repro.telemetry.observer`,
:mod:`repro.telemetry.export`) only become visible after a run finishes.
This module is the *live* counterpart: workers ship small periodic frames
— heartbeat, point progress, per-point counter deltas — to the campaign
supervisor, which merges them into a rolling ``status.json`` next to the
campaign journal, a pull snapshot API, and a Prometheus-style exposition
(:mod:`repro.telemetry.prometheus`).

Frames (``repro.telemetry-stream/v1``)
--------------------------------------

A frame is a plain dict.  It travels one of two ways, one per execution
path, and is never encoded on the way:

* ``--jobs 1``: the campaign engine hands :class:`TelemetryShipper` the
  plane's :meth:`LiveStatusPlane.ingest` as its send, so frames reach the
  aggregator in-process, in order, with no thread.
* ``--jobs N``: each :class:`~repro.harness.supervision.SupervisedPool`
  worker pickles its frames down its own result pipe, next to its
  results; the pool's event loop feeds them to ``ingest``.

Every accepted frame is appended to ``stream.jsonl`` as one compact JSON
line.  Frame types:

``hello``        worker announces itself (carries the schema tag)
``heartbeat``    liveness only
``point_start``  worker begins a point (key, rate, attempt, cycle budget)
``progress``     cycles done, delivered/injected packets, SPIN episodes
``event``        one-off worker events (chaos injections, retries)
``point_end``    point finished; carries the point's event-counter deltas

Every frame carries ``worker`` (pid), ``seq`` (per-worker monotonic) and
``t`` (wall seconds).  The aggregator tolerates out-of-order and stale
sequence numbers per worker.

Determinism contract
--------------------

Streaming is *observation only*: no frame ever feeds back into a
:class:`~repro.stats.sweep.SweepPoint`, a journal record, or a results
artifact, so a streamed ``--jobs N`` sweep is byte-identical to a
non-streamed ``--jobs 1`` sweep (proven by test, like the campaign
counters in ``CampaignReport.counters``).  A worker that cannot send
(full pipe, supervisor gone) drops the frame and keeps simulating —
shipping never blocks or fails the simulation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.stats.results import atomic_write_text, canonical_json

#: Version tag of the frame schema.
STREAM_FORMAT = "repro.telemetry-stream/v1"

#: Version tag of the rolling status snapshot.
STATUS_FORMAT = "repro.campaign-status/v1"

#: File names inside a campaign directory (next to the journal).
STATUS_NAME = "status.json"
STREAM_LOG_NAME = "stream.jsonl"

#: Default seconds without any frame after which a dispatched worker is
#: *displayed* as hung (supervision kills on its own ``hang_timeout``).
DEFAULT_HANG_AFTER = 10.0


# ----------------------------------------------------------------------
# Worker side: the shipper
# ----------------------------------------------------------------------
class TelemetryShipper:
    """Ships frames from a worker; never blocks, never raises.

    Args:
        send: ``(frame dict) -> None`` transport; may raise
            ``BlockingIOError`` (the frame is dropped and counted) or any
            other ``OSError`` (the shipper goes quiet for good).
        worker: Worker identity in frames (defaults to the pid).
        interval: Minimum wall seconds between throttled frames
            (heartbeats and progress).
    """

    def __init__(self, send: Callable[[Dict[str, object]], None],
                 worker: Optional[int] = None,
                 interval: float = 0.2) -> None:
        self._send = send
        self.worker = worker if worker is not None else os.getpid()
        self.interval = interval
        self.seq = 0
        self.frames_dropped = 0
        self.alive = True
        self._next_due = 0.0
        self._point: Optional[str] = None

    # -- transport -----------------------------------------------------
    def _emit(self, type_: str, **fields) -> None:
        if not self.alive:
            return
        self.seq += 1
        frame = {"type": type_, "worker": self.worker, "seq": self.seq,
                 "t": round(time.time(), 6)}
        frame.update(fields)
        try:
            self._send(frame)
        except BlockingIOError:
            self.frames_dropped += 1
        except OSError:
            self.alive = False  # supervisor gone: go quiet, keep running

    # -- frame kinds -----------------------------------------------------
    def hello(self) -> None:
        self._emit("hello", schema=STREAM_FORMAT)

    def heartbeat(self) -> None:
        """Throttled liveness frame (any frame refreshes liveness too)."""
        now = time.monotonic()
        if now < self._next_due:
            return
        self._next_due = now + self.interval
        self._emit("heartbeat")

    def point_start(self, key: str, rate: float, cycles_total: int,
                    attempt: int = 0) -> None:
        self._point = key
        self._next_due = 0.0
        self._emit("point_start", key=key, rate=rate,
                   cycles_total=cycles_total, attempt=attempt)

    def event(self, name: str, **fields) -> None:
        self._emit("event", name=name, key=self._point, **fields)

    def point_end(self, key: str, ok: bool, wall_time: float,
                  events: Optional[Dict[str, int]] = None) -> None:
        self._point = None
        self._emit("point_end", key=key, ok=ok,
                   wall_time=round(wall_time, 6),
                   events=dict(events or {}),
                   frames_dropped=self.frames_dropped)

    # -- progress sink (installed around simulate_point) ----------------
    def update(self, cycle: int, cycles_total: int, network) -> None:
        """Throttled progress frame; cheap no-op between intervals.

        This is the hook :func:`repro.stats.sweep.simulate_point` calls
        once per wedge-poll chunk — the stats gathering below only runs
        when a frame is actually due.
        """
        now = time.monotonic()
        if now < self._next_due or self._point is None:
            return
        self._next_due = now + self.interval
        stats = network.stats
        self._emit("progress", key=self._point, cycles_done=cycle,
                   cycles_total=cycles_total,
                   delivered=stats.packets_delivered,
                   injected=stats.packets_injected,
                   spins=stats.events.get("spins", 0))


# The per-point progress sink (installed around simulate_point).
_PROGRESS_SINK: Optional[TelemetryShipper] = None


def set_progress_sink(sink: Optional[TelemetryShipper]) -> None:
    """Install (or clear) the per-point progress sink for this process."""
    global _PROGRESS_SINK
    _PROGRESS_SINK = sink


def progress_sink() -> Optional[TelemetryShipper]:
    """The installed progress sink, if any (consulted per sweep chunk)."""
    return _PROGRESS_SINK


# ----------------------------------------------------------------------
# Supervisor side: the aggregator
# ----------------------------------------------------------------------

#: Point statuses only the authoritative engine callbacks may leave —
#: advisory frames must never downgrade them (a frame can be read after
#: the engine already completed its point).
_TERMINAL = frozenset({"ok", "failed", "resumed"})


class StreamAggregator:
    """Merges worker frames + supervisor notifications into one snapshot.

    Frames arrive through :meth:`feed_frames`; the campaign engine and
    :class:`~repro.harness.supervision.SupervisedPool` notify completion,
    dispatch, death and hangs.  Every method takes one lock, so callers
    on any thread see a coherent snapshot.

    Worker-health classification (the supervision edge case): a worker
    that dies *between* dispatch and its first heartbeat is classified
    ``dead`` — never ``hung`` — and keeps its last-known point, because
    dispatch attribution is supervisor-side (:meth:`worker_dispatched`)
    and :meth:`worker_dead` takes precedence over heartbeat age.
    """

    def __init__(self, keys: Optional[Sequence[str]] = None,
                 rates: Optional[Sequence[float]] = None,
                 hang_after: Optional[float] = DEFAULT_HANG_AFTER,
                 max_failures: Optional[int] = None,
                 registry=None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        from repro.telemetry.registry import MetricsRegistry

        self.hang_after = hang_after
        self.max_failures = max_failures
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._clock = clock
        self._lock = threading.Lock()
        self._started_at = clock()
        self._last_seq: Dict[int, int] = {}
        self._workers: Dict[int, Dict[str, object]] = {}
        self._points: Dict[str, Dict[str, object]] = {}
        self._keys: List[str] = list(keys or [])
        self._saturation: Dict[str, object] = {
            "cut": False, "cut_rate": None, "sustained_rate": 0.0}
        self.counters: Dict[str, int] = {}
        for index, key in enumerate(self._keys):
            self._points[key] = {
                "index": index,
                "rate": (rates[index] if rates is not None
                         and index < len(rates) else None),
                "status": "pending",
                "cycles_done": 0,
                "cycles_total": None,
                "worker": None,
                "attempts": 0,
                "delivered": 0,
                "injected": 0,
                "spins": 0,
                "error_class": None,
            }

    # -- frames -----------------------------------------------------------
    def feed_frames(self, frames: Sequence[Dict[str, object]]) -> None:
        """Apply worker frames in order."""
        with self._lock:
            for frame in frames:
                self._apply(frame)

    # -- supervisor notifications ----------------------------------------
    def worker_dispatched(self, pid: int, key: str) -> None:
        with self._lock:
            worker = self._worker(pid)
            worker["point"] = key
            worker["dispatched_at"] = self._clock()
            worker["flag"] = None
            point = self._points.get(key)
            if point is not None:
                if point["status"] in ("pending", "running"):
                    point["status"] = "running"
                point["worker"] = pid

    def worker_dead(self, pid: int) -> None:
        """Supervisor saw the corpse; wins over any heartbeat-age guess."""
        with self._lock:
            self._worker(pid)["flag"] = "dead"
            self._bump("workers_dead")

    def worker_hung(self, pid: int) -> None:
        with self._lock:
            self._worker(pid)["flag"] = "hung"
            self._bump("workers_hung")

    def worker_respawned(self) -> None:
        with self._lock:
            self._bump("workers_respawned")

    def point_done(self, key: str, ok: bool, point=None,
                   wall_time: float = 0.0,
                   error_class: Optional[str] = None,
                   saturation: Optional[Dict[str, object]] = None) -> None:
        """Authoritative completion from the campaign engine.

        ``saturation`` is the engine's cut verdict for the point's curve
        after it landed (``cut``, ``cut_rate``, ``sustained_rate``); the
        ``saturation`` block of the snapshot reports the latest one.
        """
        with self._lock:
            entry = self._points.get(key)
            if entry is not None:
                entry["status"] = "ok" if ok else "failed"
                entry["error_class"] = None if ok else error_class
                if point is not None:
                    entry["cycles_done"] = point.cycles
                    entry["cycles_total"] = point.cycles
                    entry["delivered"] = point.delivered
                    entry["spins"] = point.events.get("spins", 0)
            if saturation is not None:
                self._saturation = dict(saturation)
            self._bump("points_ok" if ok else "points_failed")

    def point_retry(self, key: str, attempt: int) -> None:
        with self._lock:
            entry = self._points.get(key)
            if entry is not None:
                entry["attempts"] = max(entry["attempts"], attempt + 1)
            self._bump("retries")

    def mark_resumed(self, keys: Sequence[str],
                     saturation: Optional[Dict[str, object]] = None) -> None:
        """Journal-replayed points (campaign resume), with the cut verdict
        the replay re-derived."""
        with self._lock:
            for key in keys:
                entry = self._points.get(key)
                if entry is not None:
                    entry["status"] = "resumed"
            if saturation is not None:
                self._saturation = dict(saturation)
            self._bump("points_resumed", len(list(keys)))

    # -- frame application (lock held) -----------------------------------
    def _apply(self, frame: Dict[str, object]) -> None:
        pid = frame.get("worker")
        type_ = frame.get("type")
        if not isinstance(pid, int) or not isinstance(type_, str):
            self._bump("frames_invalid")
            return
        seq = frame.get("seq")
        stale = (isinstance(seq, int)
                 and seq <= self._last_seq.get(pid, 0))
        if isinstance(seq, int) and not stale:
            self._last_seq[pid] = seq
        worker = self._worker(pid)
        worker["last_frame"] = self._clock()
        self._bump("frames_received")
        if stale:
            # Out-of-order / duplicated frame: still proves liveness, but
            # its payload may undo newer state — drop it.
            self._bump("frames_stale")
            return
        if type_ == "point_start":
            key = frame.get("key")
            worker["point"] = key
            worker["flag"] = None
            point = self._points.get(key)
            # Frames are advisory: the engine's point_done()/mark_resumed()
            # are authoritative, and a frame may be read after the engine
            # already finished the point — never downgrade a terminal
            # status back to running.
            if point is not None and point["status"] not in _TERMINAL:
                point["status"] = "running"
                point["worker"] = pid
                point["cycles_total"] = frame.get("cycles_total")
                point["cycles_done"] = 0
                attempt = frame.get("attempt", 0)
                if isinstance(attempt, int):
                    point["attempts"] = max(point["attempts"], attempt + 1)
        elif type_ == "progress":
            point = self._points.get(frame.get("key"))
            if point is not None and point["status"] not in _TERMINAL:
                for field, name in (("cycles_done", "cycles_done"),
                                    ("cycles_total", "cycles_total"),
                                    ("delivered", "delivered"),
                                    ("injected", "injected"),
                                    ("spins", "spins")):
                    value = frame.get(name)
                    if value is not None:
                        point[field] = value
        elif type_ == "point_end":
            worker["point"] = None
            worker["points_done"] = worker.get("points_done", 0) + 1
            events = frame.get("events")
            if isinstance(events, dict):
                for name, value in events.items():
                    if isinstance(value, (int, float)):
                        self.registry.counter(f"stream_{name}").inc(
                            int(value))
            dropped = frame.get("frames_dropped")
            if isinstance(dropped, int):
                # Each worker reports its running total: keep the latest
                # per worker and sum across workers.
                worker["frames_dropped"] = dropped
                total = sum(w.get("frames_dropped", 0)
                            for w in self._workers.values())
                if total:
                    self.counters["frames_dropped_by_workers"] = total
        elif type_ == "event":
            name = frame.get("name")
            if isinstance(name, str):
                self._bump(f"events_{name}")
        # hello / heartbeat: liveness refresh above is all they carry.

    def _worker(self, pid: int) -> Dict[str, object]:
        worker = self._workers.get(pid)
        if worker is None:
            worker = {"point": None, "last_frame": None,
                      "dispatched_at": None, "flag": None,
                      "points_done": 0, "first_seen": self._clock()}
            self._workers[pid] = worker
        return worker

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- classification & snapshot ---------------------------------------
    def _worker_state(self, worker: Dict[str, object], now: float) -> str:
        flag = worker.get("flag")
        if flag in ("dead", "hung"):
            return flag
        if worker.get("point") is None:
            return "idle"
        reference = max(filter(None, (worker.get("last_frame"),
                                      worker.get("dispatched_at"),
                                      worker.get("first_seen"))),
                        default=now)
        if self.hang_after is not None and now - reference > self.hang_after:
            return "hung"
        return "running"

    def snapshot(self, status: str = "running") -> Dict[str, object]:
        """One coherent status payload (the ``status.json`` body)."""
        with self._lock:
            now = self._clock()
            workers = {}
            for pid, worker in sorted(self._workers.items()):
                last = worker.get("last_frame")
                workers[str(pid)] = {
                    "state": self._worker_state(worker, now),
                    "point": worker.get("point"),
                    "points_done": worker.get("points_done", 0),
                    "heartbeat_age_s": (round(now - last, 3)
                                        if last is not None else None),
                }
            points = {key: dict(entry)
                      for key, entry in self._points.items()}
            states = [entry["status"] for entry in points.values()]
            done = sum(1 for s in states if s in ("ok", "resumed", "failed"))
            ok = sum(1 for s in states if s in ("ok", "resumed"))
            failed = sum(1 for s in states if s == "failed")
            running = [key for key in self._keys
                       if points.get(key, {}).get("status") == "running"]
            elapsed = max(1e-9, now - self._started_at)
            finished_live = (self.counters.get("points_ok", 0)
                             + self.counters.get("points_failed", 0))
            throughput = finished_live / elapsed
            remaining = len(self._keys) - done if self._keys else 0
            # A finished campaign has no ETA, even with points left pending
            # past a curve's cut.
            eta = (round(remaining / throughput, 1)
                   if status == "running" and throughput > 0
                   and remaining > 0 else None)
            payload = {
                "schema": STATUS_FORMAT,
                "status": status,
                "updated_unix": round(time.time(), 3),
                "campaign": {
                    "total_points": len(self._keys),
                    "done": done,
                    "ok": ok,
                    "failed": failed,
                    "resumed": self.counters.get("points_resumed", 0),
                    "running": running,
                    "throughput_pps": round(throughput, 4),
                    "eta_seconds": eta,
                    "elapsed_seconds": round(elapsed, 1),
                    "failure_budget": {
                        "max": self.max_failures,
                        "burned": failed,
                    },
                    "saturation": dict(self._saturation),
                },
                "workers": workers,
                "points": points,
                "counters": dict(sorted(self.counters.items())),
                "stream_totals": self.registry.counter_totals(),
            }
            return payload


# ----------------------------------------------------------------------
# The live status plane (frame log + rolling status.json)
# ----------------------------------------------------------------------
class LiveStatusPlane:
    """Owns the aggregator, ``stream.jsonl`` and ``status.json``.

    Created by :class:`~repro.harness.campaign.CampaignEngine` when a
    campaign directory is in play.  :meth:`start` opens ``stream.jsonl``
    and writes the first ``status.json``; it binds nothing and starts no
    thread.  Frames arrive through :meth:`ingest` — straight from the
    in-process shipper at ``--jobs 1``, from the pool's event loop at
    ``--jobs N`` — and ``status.json`` is atomically rewritten at most
    every ``status_interval`` seconds.  All failures are contained: a
    plane that cannot start degrades to no-op observation, never a dead
    sweep.
    """

    def __init__(self, directory: Union[str, Path],
                 keys: Optional[Sequence[str]] = None,
                 rates: Optional[Sequence[float]] = None,
                 hang_after: Optional[float] = DEFAULT_HANG_AFTER,
                 max_failures: Optional[int] = None,
                 status_interval: float = 0.5,
                 log_frames: bool = True) -> None:
        self.directory = Path(directory)
        self.status_interval = status_interval
        self.log_frames = log_frames
        self.aggregator = StreamAggregator(
            keys=keys, rates=rates, hang_after=hang_after,
            max_failures=max_failures)
        self.enabled = False
        self._log_handle = None
        # Monotonic time the next refresh is due.  The first is due at
        # once, so the first dispatch or frame shows without a wait.
        self._next_status = 0.0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "LiveStatusPlane":
        """Open the frame log and write the first status; contained."""
        if self.enabled:
            return self
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            if self.log_frames:
                self._log_handle = open(
                    self.directory / STREAM_LOG_NAME, "a",
                    encoding="utf-8")
            self.write_status("running")
        except OSError:
            self._close_log()
            return self  # degrade: campaign runs unobserved
        self.enabled = True
        return self

    def stop(self, status: str = "completed") -> None:
        """Close the frame log and write the final status."""
        self._close_log()
        self.enabled = False
        try:
            self.write_status(status)
        except OSError:  # pragma: no cover - disk gone
            pass

    def _close_log(self) -> None:
        if self._log_handle is not None:
            try:
                self._log_handle.close()
            except OSError:  # pragma: no cover
                pass
            self._log_handle = None

    # -- frames ----------------------------------------------------------
    def ingest(self, frame: Dict[str, object]) -> None:
        """Apply one worker frame, log it, refresh ``status.json`` if due.

        The frame is taken as is: no encoding, no decoding.  I/O failures
        are swallowed; a stopped plane ignores frames.
        """
        if not self.enabled:
            return
        self.aggregator.feed_frames((frame,))
        if self._log_handle is not None:
            try:
                self._log_handle.write(canonical_json(frame) + "\n")
                self._log_handle.flush()
            except (OSError, ValueError):  # pragma: no cover - disk gone
                pass
        self.refresh_status()

    def refresh_status(self) -> None:
        """Rewrite ``status.json`` if ``status_interval`` has passed."""
        now = time.monotonic()
        if not self.enabled or now < self._next_status:
            return
        self._next_status = now + self.status_interval
        try:
            self.write_status("running")
        except OSError:  # pragma: no cover - disk gone
            pass

    # -- status ----------------------------------------------------------
    def write_status(self, status: str) -> None:
        """Atomically rewrite ``status.json`` (crash leaves old or new)."""
        payload = self.aggregator.snapshot(status)
        atomic_write_text(self.directory / STATUS_NAME,
                          canonical_json(payload) + "\n")

    # -- notification proxies (campaign engine) ---------------------------
    def point_done(self, key: str, ok: bool, point=None,
                   wall_time: float = 0.0,
                   error_class: Optional[str] = None,
                   saturation: Optional[Dict[str, object]] = None) -> None:
        self.aggregator.point_done(key, ok, point=point,
                                   wall_time=wall_time,
                                   error_class=error_class,
                                   saturation=saturation)

    def point_retry(self, key: str, attempt: int) -> None:
        self.aggregator.point_retry(key, attempt)

    def mark_resumed(self, keys: Sequence[str],
                     saturation: Optional[Dict[str, object]] = None) -> None:
        self.aggregator.mark_resumed(keys, saturation)


# ----------------------------------------------------------------------
# Stream-log aggregation (cli trace / cli report over a campaign dir)
# ----------------------------------------------------------------------
def read_stream_log(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load ``stream.jsonl`` frames, forgiving a torn final line."""
    path = Path(path)
    if not path.exists():
        return []
    frames: List[Dict[str, object]] = []
    lines = path.read_text(encoding="utf-8", errors="replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for index, line in enumerate(lines):
        try:
            frame = json.loads(line)
            if not isinstance(frame, dict):
                raise ValueError
        except ValueError:
            if index == len(lines) - 1:
                break  # torn tail: the crash we survive
            continue  # skip interior garbage; streams are best-effort
        frames.append(frame)
    return frames


def stream_summary(frames: Sequence[Dict[str, object]]
                   ) -> Dict[str, object]:
    """Aggregate a frame log: totals by type, per-worker, per-point."""
    by_type: Dict[str, int] = {}
    workers: Dict[int, Dict[str, int]] = {}
    points: Dict[str, Dict[str, object]] = {}
    for frame in frames:
        type_ = frame.get("type", "?")
        by_type[type_] = by_type.get(type_, 0) + 1
        pid = frame.get("worker")
        if isinstance(pid, int):
            worker = workers.setdefault(pid, {"frames": 0, "points": 0})
            worker["frames"] += 1
            if type_ == "point_end":
                worker["points"] += 1
        key = frame.get("key")
        if isinstance(key, str):
            entry = points.setdefault(key, {"frames": 0, "wall_time": None,
                                            "ok": None})
            entry["frames"] += 1
            if type_ == "point_end":
                entry["wall_time"] = frame.get("wall_time")
                entry["ok"] = frame.get("ok")
    return {"frames": len(frames), "by_type": dict(sorted(by_type.items())),
            "workers": {str(k): v for k, v in sorted(workers.items())},
            "points": points}


def stream_chrome_trace(frames: Sequence[Dict[str, object]]
                        ) -> Dict[str, object]:
    """Convert a frame log to a Chrome ``trace_event`` campaign timeline.

    Workers become threads; each point execution is a complete ("X")
    slice from its ``point_start`` to ``point_end``, and progress frames
    become counter ("C") samples — load the file in ``chrome://tracing``
    or Perfetto to see the campaign's parallel schedule.
    """
    events: List[Dict[str, object]] = [{
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": "campaign"},
    }]
    seen_workers = set()
    open_points: Dict[int, Dict[str, object]] = {}
    base = min((f.get("t", 0.0) for f in frames
                if isinstance(f.get("t"), (int, float))), default=0.0)

    def ts(frame) -> float:
        t = frame.get("t", base)
        return round((t - base) * 1e6, 1)

    for frame in frames:
        pid = frame.get("worker")
        if not isinstance(pid, int):
            continue
        if pid not in seen_workers:
            seen_workers.add(pid)
            events.append({"ph": "M", "pid": 1, "tid": pid,
                           "name": "thread_name",
                           "args": {"name": f"worker-{pid}"}})
        type_ = frame.get("type")
        if type_ == "point_start":
            open_points[pid] = frame
        elif type_ == "point_end":
            start = open_points.pop(pid, None)
            start_ts = ts(start) if start is not None else ts(frame)
            events.append({
                "ph": "X", "pid": 1, "tid": pid,
                "name": str(frame.get("key")),
                "ts": start_ts,
                "dur": max(0.0, ts(frame) - start_ts),
                "args": {"ok": frame.get("ok"),
                         "wall_time": frame.get("wall_time")},
            })
        elif type_ == "progress":
            events.append({
                "ph": "C", "pid": 1, "tid": pid, "name": "cycles",
                "ts": ts(frame),
                "args": {"done": frame.get("cycles_done", 0)},
            })
    from repro.telemetry.export import CHROME_FORMAT

    return {"displayTimeUnit": "ms", "traceEvents": events,
            "metadata": {"format": CHROME_FORMAT,
                         "clock": "wall",
                         "source": STREAM_FORMAT}}
