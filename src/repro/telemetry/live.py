"""Live campaign observability: streaming worker telemetry.

The post-hoc telemetry layers (:mod:`repro.telemetry.observer`,
:mod:`repro.telemetry.export`) only become visible after a run finishes.
This module is the *live* counterpart: workers ship small periodic frames
— heartbeat, point progress, per-point counter deltas — across the fork
boundary to the campaign supervisor, which merges them into a rolling
``status.json`` next to the campaign journal, a pull snapshot API, and a
Prometheus-style exposition (:mod:`repro.telemetry.prometheus`).

Wire protocol (``repro.telemetry-stream/v1``)
---------------------------------------------

Frames travel over a Unix ``SOCK_STREAM`` socket whose path is published
in the ``REPRO_STREAM_SOCKET`` environment variable (workers of
:class:`~repro.harness.supervision.SupervisedPool` inherit it across
``fork``).  Each frame is length-prefixed JSONL::

    <decimal byte length> SP <compact JSON object> LF

The prefix lets the decoder distinguish a *torn* frame (bytes still in
flight — wait for more) from a *corrupt* one (bad prefix or JSON —
resync at the next newline and count it).  Frame types:

``hello``        worker announces itself (carries the schema tag)
``heartbeat``    liveness only
``point_start``  worker begins a point (key, rate, attempt, cycle budget)
``progress``     cycles done, delivered/injected packets, SPIN episodes
``event``        one-off worker events (chaos injections, retries)
``point_end``    point finished; carries the point's event-counter deltas

Every frame carries ``worker`` (pid), ``seq`` (per-worker monotonic) and
``t`` (wall seconds).  The aggregator tolerates torn frames, corrupt
bytes, and out-of-order/stale sequence numbers per worker.

Determinism contract
--------------------

Streaming is *observation only*: no frame ever feeds back into a
:class:`~repro.stats.sweep.SweepPoint`, a journal record, or a results
artifact, so a streamed ``--jobs N`` sweep is byte-identical to a
non-streamed ``--jobs 1`` sweep (proven by test, like the campaign
counters in ``CampaignReport.counters``).  A worker that cannot send
(full buffer, supervisor gone) drops the frame and keeps simulating —
shipping never blocks or fails the simulation.
"""

from __future__ import annotations

import json
import os
import select
import socket
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

#: Version tag of the frame schema.
STREAM_FORMAT = "repro.telemetry-stream/v1"

#: Version tag of the rolling status snapshot.
STATUS_FORMAT = "repro.campaign-status/v1"

#: Environment variable naming the supervisor's Unix socket.
STREAM_SOCKET_ENV = "REPRO_STREAM_SOCKET"

#: File names inside a campaign directory (next to the journal).
STATUS_NAME = "status.json"
STREAM_LOG_NAME = "stream.jsonl"

#: Default seconds without any frame after which a dispatched worker is
#: *displayed* as hung (supervision kills on its own ``hang_timeout``).
DEFAULT_HANG_AFTER = 10.0

_COMPACT = {"sort_keys": True, "separators": (",", ":")}

#: Longest accepted decimal length prefix (1 MB frames are already absurd).
_MAX_PREFIX_DIGITS = 8


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(frame: Dict[str, object]) -> bytes:
    """Encode one frame as length-prefixed JSONL bytes."""
    payload = json.dumps(frame, **_COMPACT).encode("utf-8")
    return b"%d %s\n" % (len(payload), payload)


class FrameDecoder:
    """Incremental decoder tolerating torn, partial and corrupt frames.

    Feed arbitrary byte chunks; complete frames come out in order.  A
    frame split across chunks stays buffered until its remaining bytes
    arrive.  A malformed prefix or JSON body skips to the next newline
    (``frames_corrupt``) so one bad write cannot poison the stream.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self.frames_decoded = 0
        self.frames_corrupt = 0

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        """Consume ``data``; return every frame completed by it."""
        self._buffer += data
        frames: List[Dict[str, object]] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self) -> Optional[Dict[str, object]]:
        buffer = self._buffer
        while buffer:
            space = buffer.find(b" ", 0, _MAX_PREFIX_DIGITS + 1)
            if space < 0:
                if len(buffer) > _MAX_PREFIX_DIGITS:
                    buffer = self._resync(buffer)
                    continue
                break  # torn prefix: wait for more bytes
            prefix = buffer[:space]
            if not prefix.isdigit():
                buffer = self._resync(buffer)
                continue
            length = int(prefix)
            end = space + 1 + length
            if len(buffer) < end + 1:
                break  # torn body: wait for more bytes
            body, tail = buffer[space + 1:end], buffer[end:end + 1]
            if tail != b"\n":
                buffer = self._resync(buffer)
                continue
            buffer = buffer[end + 1:]
            try:
                frame = json.loads(body.decode("utf-8"))
                if not isinstance(frame, dict):
                    raise ValueError("not an object")
            except (ValueError, UnicodeDecodeError):
                self.frames_corrupt += 1
                continue
            self._buffer = buffer
            self.frames_decoded += 1
            return frame
        self._buffer = buffer
        return None

    def _resync(self, buffer: bytes) -> bytes:
        """Skip a corrupt region up to (and including) the next newline."""
        self.frames_corrupt += 1
        newline = buffer.find(b"\n")
        return b"" if newline < 0 else buffer[newline + 1:]


# ----------------------------------------------------------------------
# Worker side: the shipper
# ----------------------------------------------------------------------
class TelemetryShipper:
    """Ships frames from a worker; never blocks, never raises.

    Args:
        send: ``(bytes) -> None`` transport; may raise ``OSError`` /
            ``BlockingIOError`` — both are swallowed (the frame is
            dropped and counted, or the transport marked dead).
        worker: Worker identity in frames (defaults to the pid).
        interval: Minimum wall seconds between throttled frames
            (heartbeats and progress).
    """

    def __init__(self, send: Callable[[bytes], None],
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
            self._send(encode_frame(frame))
        except BlockingIOError:
            self.frames_dropped += 1
        except OSError:
            self.alive = False  # supervisor gone: go quiet, keep running

    def close(self) -> None:
        self.alive = False
        closer = getattr(self._send, "close", None)
        if closer is not None:
            try:
                closer()
            except OSError:  # pragma: no cover
                pass

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


class _SocketTransport:
    """Non-blocking Unix-socket send for :class:`TelemetryShipper`."""

    def __init__(self, path: str) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(1.0)
        self._sock.connect(path)
        self._sock.setblocking(False)

    def __call__(self, data: bytes) -> None:
        self._sock.send(data)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


# Process-global worker shipper + progress sink.  The shipper is keyed on
# (pid, socket path) so forked children never reuse a parent's socket and
# a finished campaign (env cleared) detaches cleanly.
_WORKER_SHIPPER: Optional[tuple] = None
_PROGRESS_SINK: Optional[TelemetryShipper] = None


def ensure_worker_shipper() -> Optional[TelemetryShipper]:
    """The calling process's shipper, per ``REPRO_STREAM_SOCKET``.

    Returns ``None`` when streaming is off (env unset) or the supervisor
    socket cannot be reached — the worker then runs exactly as before.
    """
    global _WORKER_SHIPPER
    path = os.environ.get(STREAM_SOCKET_ENV)
    pid = os.getpid()
    if not path:
        if _WORKER_SHIPPER is not None:
            _WORKER_SHIPPER[2].close()
            _WORKER_SHIPPER = None
        return None
    if _WORKER_SHIPPER is not None:
        cached_pid, cached_path, shipper = _WORKER_SHIPPER
        if cached_pid == pid and cached_path == path and shipper.alive:
            return shipper
        shipper.close()
        _WORKER_SHIPPER = None
    try:
        shipper = TelemetryShipper(_SocketTransport(path), worker=pid)
    except OSError:
        return None
    _WORKER_SHIPPER = (pid, path, shipper)
    shipper.hello()
    return shipper


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
#: advisory frames must never downgrade them (the listener thread can
#: apply a frame after the engine already completed the point).
_TERMINAL = frozenset({"ok", "failed", "resumed"})


class StreamAggregator:
    """Merges worker frames + supervisor notifications into one snapshot.

    Thread-safe: frames arrive from the listener thread while the
    campaign engine and :class:`~repro.harness.supervision.SupervisedPool`
    notify dispatch/death/hang from the main thread.

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
                 latency_cap: float = 4.0,
                 registry=None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        from repro.telemetry.registry import MetricsRegistry

        self.hang_after = hang_after
        self.max_failures = max_failures
        self.latency_cap = latency_cap
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._clock = clock
        self._lock = threading.Lock()
        self._started_at = clock()
        self._decoders: Dict[object, FrameDecoder] = {}
        self._last_seq: Dict[int, int] = {}
        self._workers: Dict[int, Dict[str, object]] = {}
        self._points: Dict[str, Dict[str, object]] = {}
        self._keys: List[str] = list(keys or [])
        self._sweep_points: Dict[str, object] = {}
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

    # -- byte ingestion (listener thread) -------------------------------
    def feed_bytes(self, conn_id: object, data: bytes
                   ) -> List[Dict[str, object]]:
        """Decode one connection's bytes; apply and return the frames."""
        with self._lock:
            decoder = self._decoders.setdefault(conn_id, FrameDecoder())
            before = decoder.frames_corrupt
            frames = decoder.feed(data)
            corrupt = decoder.frames_corrupt - before
            if corrupt:
                self._bump("frames_corrupt", corrupt)
            for frame in frames:
                self._apply(frame)
            return frames

    def feed_frames(self, frames: Sequence[Dict[str, object]]) -> None:
        """Apply already-decoded frames (tests, log replay)."""
        with self._lock:
            for frame in frames:
                self._apply(frame)

    # -- supervisor notifications (main thread) --------------------------
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
                   error_class: Optional[str] = None) -> None:
        """Authoritative completion from the campaign engine."""
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
            if ok:
                self._bump("points_ok")
                if point is not None:
                    self._sweep_points[key] = point
            else:
                self._bump("points_failed")

    def point_retry(self, key: str, attempt: int) -> None:
        with self._lock:
            entry = self._points.get(key)
            if entry is not None:
                entry["attempts"] = max(entry["attempts"], attempt + 1)
            self._bump("retries")

    def mark_resumed(self, keys: Sequence[str], points=None) -> None:
        """Journal-replayed points (campaign resume)."""
        with self._lock:
            for key in keys:
                entry = self._points.get(key)
                if entry is not None:
                    entry["status"] = "resumed"
                if points is not None and key in points:
                    self._sweep_points[key] = points[key]
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
            # are authoritative, and the listener thread may apply a frame
            # after the engine already finished the point — never downgrade
            # a terminal status back to running.
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
            if isinstance(dropped, int) and dropped:
                self.counters["frames_dropped_by_workers"] = max(
                    self.counters.get("frames_dropped_by_workers", 0),
                    dropped)
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
            eta = (round(remaining / throughput, 1)
                   if throughput > 0 and remaining > 0 else None)
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
                    "saturation": self._saturation(),
                },
                "workers": workers,
                "points": points,
                "counters": dict(sorted(self.counters.items())),
                "stream_totals": self.registry.counter_totals(),
            }
            return payload

    def _saturation(self) -> Dict[str, object]:
        """Live saturation-cursor state over the contiguous ok prefix."""
        from repro.stats.sweep import SaturationCursor

        cursor = SaturationCursor(self.latency_cap)
        cut = False
        cut_rate = None
        sustained = 0.0
        for key in self._keys:
            point = self._sweep_points.get(key)
            if point is None:
                break
            if cursor.push(point):
                cut = True
                cut_rate = point.injection_rate
                break
            sustained = point.injection_rate
        return {"cut": cut, "cut_rate": cut_rate,
                "sustained_rate": sustained}


# ----------------------------------------------------------------------
# The live status plane (listener thread + rolling status.json)
# ----------------------------------------------------------------------
class LiveStatusPlane:
    """Owns the stream socket, the aggregator, and ``status.json``.

    Created by :class:`~repro.harness.campaign.CampaignEngine` when a
    campaign directory is in play.  :meth:`start` binds a Unix socket,
    publishes its path in ``REPRO_STREAM_SOCKET`` (inherited by forked
    workers *and* reachable by the in-process serial path), and spawns a
    background thread that drains connections, appends decoded frames to
    ``stream.jsonl``, and atomically rewrites ``status.json`` every
    ``status_interval`` seconds.  All failures are contained: a plane
    that cannot start degrades to no-op observation, never a dead sweep.
    """

    def __init__(self, directory: Union[str, Path],
                 keys: Optional[Sequence[str]] = None,
                 rates: Optional[Sequence[float]] = None,
                 hang_after: Optional[float] = DEFAULT_HANG_AFTER,
                 max_failures: Optional[int] = None,
                 latency_cap: float = 4.0,
                 status_interval: float = 0.5,
                 log_frames: bool = True) -> None:
        self.directory = Path(directory)
        self.status_interval = status_interval
        self.log_frames = log_frames
        self.aggregator = StreamAggregator(
            keys=keys, rates=rates, hang_after=hang_after,
            max_failures=max_failures, latency_cap=latency_cap)
        self.enabled = False
        self.socket_path: Optional[str] = None
        self._listener: Optional[socket.socket] = None
        self._conns: Dict[int, socket.socket] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._wake_r, self._wake_w = -1, -1
        self._log_handle = None
        self._tmpdir: Optional[str] = None
        self._previous_env: Optional[str] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "LiveStatusPlane":
        """Bind, publish the env var, spawn the drain thread; contained."""
        if self.enabled:
            return self
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.socket_path = self._pick_socket_path()
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
            listener.listen(64)
            listener.setblocking(False)
            self._listener = listener
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_r, False)
            if self.log_frames:
                self._log_handle = open(
                    self.directory / STREAM_LOG_NAME, "a",
                    encoding="utf-8")
        except OSError:
            self._cleanup_io()
            return self  # degrade: campaign runs unobserved
        self._previous_env = os.environ.get(STREAM_SOCKET_ENV)
        os.environ[STREAM_SOCKET_ENV] = self.socket_path
        self._stop.clear()
        self.write_status("running")
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-stream", daemon=True)
        self._thread.start()
        self.enabled = True
        return self

    def stop(self, status: str = "completed") -> None:
        """Stop draining, restore the env, write the final status."""
        if self._previous_env is None:
            os.environ.pop(STREAM_SOCKET_ENV, None)
        else:
            os.environ[STREAM_SOCKET_ENV] = self._previous_env
        self._previous_env = None
        if self._thread is not None:
            self._stop.set()
            try:
                os.write(self._wake_w, b"x")
            except OSError:  # pragma: no cover
                pass
            self._thread.join(timeout=5.0)
            if not self._thread.is_alive():
                self._drain_pending()
            self._thread = None
        self._cleanup_io()
        self.enabled = False
        try:
            self.write_status(status)
        except OSError:  # pragma: no cover - disk gone
            pass

    def _pick_socket_path(self) -> str:
        path = str(self.directory / "stream.sock")
        if len(path) > 90:
            # AF_UNIX paths are capped (~108 bytes); fall back to a short
            # tmp path when the campaign dir nests deep.
            self._tmpdir = tempfile.mkdtemp(prefix="repro-stream-")
            path = os.path.join(self._tmpdir, "s.sock")
        if os.path.exists(path):
            os.unlink(path)
        return path

    def _cleanup_io(self) -> None:
        for conn in list(self._conns.values()):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._conns.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None
        for fd in (self._wake_r, self._wake_w):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover
                    pass
        self._wake_r, self._wake_w = -1, -1
        if self._log_handle is not None:
            try:
                self._log_handle.close()
            except OSError:  # pragma: no cover
                pass
            self._log_handle = None
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:  # pragma: no cover
                pass
        if self._tmpdir is not None:
            try:
                os.rmdir(self._tmpdir)
            except OSError:  # pragma: no cover
                pass
            self._tmpdir = None

    # -- drain thread ----------------------------------------------------
    def _drain_loop(self) -> None:
        next_status = 0.0
        while not self._stop.is_set():
            readable = [self._listener, self._wake_r]
            readable.extend(self._conns.values())
            timeout = max(0.05, min(self.status_interval,
                                    next_status - time.monotonic()))
            try:
                ready, _, _ = select.select(readable, [], [], timeout)
            except (OSError, ValueError):  # pragma: no cover - teardown
                break
            for source in ready:
                if source is self._listener:
                    self._accept()
                elif source == self._wake_r:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:  # pragma: no cover
                        pass
                else:
                    self._read_conn(source)
            now = time.monotonic()
            if now >= next_status:
                next_status = now + self.status_interval
                try:
                    self.write_status("running")
                except OSError:  # pragma: no cover - disk gone
                    pass

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            conn.setblocking(False)
            self._conns[conn.fileno()] = conn

    def _drain_pending(self) -> None:
        """Read what was already sent when the drain thread stopped.

        Workers send synchronously, so every frame of a finished point is
        in a socket buffer by now — but a short campaign can end between
        two wake-ups of the drain thread, before it accepted or read them.
        """
        self._accept()
        for conn in list(self._conns.values()):
            while self._read_conn(conn):
                pass

    def _read_conn(self, conn: socket.socket) -> bool:
        """Consume one chunk; False once the connection has nothing more
        (for now, or for good)."""
        conn_id = conn.fileno()
        try:
            data = conn.recv(65536)
        except BlockingIOError:
            return False
        except OSError:
            data = b""
        if not data:
            self._conns.pop(conn_id, None)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            return False
        frames = self.aggregator.feed_bytes(conn_id, data)
        if frames and self._log_handle is not None:
            try:
                for frame in frames:
                    self._log_handle.write(
                        json.dumps(frame, **_COMPACT) + "\n")
                self._log_handle.flush()
            except (OSError, ValueError):  # pragma: no cover
                pass
        return True

    # -- status ----------------------------------------------------------
    def write_status(self, status: str) -> None:
        """Atomically rewrite ``status.json`` (crash leaves old or new)."""
        from repro.stats.results import atomic_write_text

        payload = self.aggregator.snapshot(status)
        atomic_write_text(self.directory / STATUS_NAME,
                          json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")

    # -- notification proxies (campaign engine) ---------------------------
    def point_done(self, key: str, ok: bool, point=None,
                   wall_time: float = 0.0,
                   error_class: Optional[str] = None) -> None:
        self.aggregator.point_done(key, ok, point=point,
                                   wall_time=wall_time,
                                   error_class=error_class)

    def point_retry(self, key: str, attempt: int) -> None:
        self.aggregator.point_retry(key, attempt)

    def mark_resumed(self, keys: Sequence[str], points=None) -> None:
        self.aggregator.mark_resumed(keys, points)


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
