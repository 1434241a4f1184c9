"""Spec execution: one attempt in-process, or a supervised worker pool.

:func:`run_attempt` is the single place a spec is simulated and its
failure captured as a :class:`SpecResult`; :class:`SupervisedPool` runs
attempts in worker processes and *recovers* from the failure modes a
``ProcessPoolExecutor`` cannot express:

* a worker that **hangs** (runaway simulation, wedged import) occupies its
  slot forever — the pool never times it out, it must be killed;
* a worker that **dies** (OOM-kill, segfault) permanently breaks a
  ``ProcessPoolExecutor``; a supervised pool replaces the corpse and keeps
  the remaining work flowing;
* a **transient** failure (either of the above) deserves a bounded retry,
  while a **deterministic** one (the spec itself raises) never does —
  retrying it would burn the failure budget on a foregone conclusion.

:class:`SupervisedPool` runs ``multiprocessing`` workers, each fed through
its own private task queue and reporting on its own result pipe.  The
supervisor records which task it handed to which worker *at dispatch
time*, so attribution never depends on a message from the worker itself
— a worker that dies the instant it starts (before any queue feeder
thread flushes a byte) is still charged with exactly the task it was
holding, which is failed transiently while the worker is respawned.  Everything observable lands in a counters dict the
campaign engine reports as ``CampaignReport.counters``.

Determinism note: supervision only decides *when* and *where* a spec runs,
never what it computes — a retried spec re-runs the identical seeded
simulation, so recovery cannot perturb results (the property the chaos
suite checks byte-for-byte).  Retry *backoff* is deterministic too: the
jitter is a stable digest of ``(spec key, attempt)``, not an RNG draw.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import queue as queue_module
import select
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import multiprocessing

from repro.errors import ConfigurationError
from repro.harness.runner import ExperimentSpec
from repro.stats.sweep import SweepPoint

#: Failure classes (see :func:`classify_failure`).
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: Error-text prefixes that mark a failure as infrastructure (retryable),
#: not a property of the spec itself.
_TRANSIENT_PREFIXES = ("worker crashed", "worker hung", "timeout", "not run")

#: Supervisor polling granularity in seconds.
POLL_INTERVAL = 0.05


def classify_failure(error: Optional[str]) -> str:
    """Classify a :class:`SpecResult` error as transient or deterministic.

    Transient failures (worker crash, hang, timeout, not-run) are
    infrastructure misfortunes: the same spec is expected to succeed on a
    healthy worker, so the retry path applies.  Everything else — a Python
    exception out of the spec's own simulation — is deterministic: the
    identical seeded run will fail identically, so it is journaled as a
    permanent failure immediately.
    """
    if not error:
        return DETERMINISTIC
    return (TRANSIENT if error.startswith(_TRANSIENT_PREFIXES)
            else DETERMINISTIC)


def error_class(error: Optional[str]) -> str:
    """Short class label for failure-summary tables (``worker crashed``,
    ``timeout``, ``worker raised``, ...)."""
    if not error:
        return "unknown"
    head = error.split("\n", 1)[0]
    label = head.split(":", 1)[0].strip()
    return label or "unknown"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Attributes:
        retries: Extra attempts after the first (0 disables retrying).
        base: Backoff before the first retry, in seconds.
        cap: Upper bound on any single backoff delay.
    """

    retries: int = 2
    base: float = 0.25
    cap: float = 8.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0",
                                     retries=self.retries)
        if self.base < 0 or self.cap < 0:
            raise ConfigurationError("backoff delays must be >= 0",
                                     base=self.base, cap=self.cap)

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before re-running ``key`` after ``attempt``.

        Exponential in the attempt number, capped, and jittered into
        [0.5x, 1.0x] by a stable digest of ``(key, attempt)`` — identical
        across processes and runs, so campaigns never gain a hidden
        wall-clock dependence while still de-thundering herds of retries.
        """
        bounded = min(self.cap, self.base * (2.0 ** attempt))
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2 ** 64
        return bounded * (0.5 + 0.5 * unit)


@dataclass
class SpecResult:
    """Outcome of one spec: a point, or a failure record — never nothing.

    Attributes:
        spec: The spec that was (attempted to be) simulated; failed specs
            can be resubmitted directly from their record.
        point: The measurement, or ``None`` on failure.
        error: Failure description (``worker raised:`` + traceback,
            ``worker crashed``, ``worker hung``), or ``None`` on success.
        wall_time: Wall-clock seconds the attempt took.
    """

    spec: ExperimentSpec
    point: Optional[SweepPoint]
    error: Optional[str] = None
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether this spec produced a measurement."""
        return self.error is None and self.point is not None


def run_attempt(spec: ExperimentSpec, attempt: int = 0,
                key: Optional[str] = None,
                shipper=None) -> SpecResult:
    """Execute one attempt of a spec in the calling process.

    The single execution path shared by serial campaigns and pool workers:
    consults the chaos hook (:mod:`repro.harness.chaos`, active only when
    ``REPRO_CHAOS`` is set), then simulates, capturing any exception as a
    failed :class:`SpecResult`.

    ``key`` is the spec's content key; the campaign engine passes the one
    it already holds, and a direct caller may leave it to be computed
    here.  With a ``shipper`` (a
    :class:`~repro.telemetry.live.TelemetryShipper`, given by a streamed
    campaign), the attempt is bracketed by ``point_start``/``point_end``
    frames and the shipper is the progress sink for the duration — all
    observation-only and dropped rather than ever blocking the simulation.
    """
    from repro.harness.chaos import chaos_from_env
    from repro.telemetry import live

    if key is None:
        key = spec.content_key()
    if shipper is not None:
        shipper.point_start(key, spec.injection_rate, spec.sim.total_cycles,
                            attempt)
        live.set_progress_sink(shipper)
    started = time.perf_counter()
    try:
        policy = chaos_from_env()
        if policy is not None:
            if shipper is not None:
                shipper.event("chaos_consulted", attempt=attempt)
            policy.inject(key, attempt)
        _, point = spec.run()
    except Exception:
        result = SpecResult(spec, None,
                            error="worker raised:\n"
                            + traceback.format_exc(),
                            wall_time=time.perf_counter() - started)
    else:
        result = SpecResult(spec, point,
                            wall_time=time.perf_counter() - started)
    finally:
        if shipper is not None:
            live.set_progress_sink(None)
    if shipper is not None:
        shipper.point_end(key, result.ok, result.wall_time,
                          events=(result.point.events
                                  if result.point is not None else None))
    return result


def _frame_sender(writer):
    """A pool worker's frame transport: one all-or-nothing pipe write.

    The frame is pickled, and a non-blocking pipe write of at most
    ``PIPE_BUF`` bytes is atomic: it lands whole or raises
    ``BlockingIOError`` (pipe full), which the shipper counts as a dropped
    frame.  A frame too big for one such write is refused the same way,
    so no frame is ever torn or blocks the worker.
    """
    fd = writer.fileno()
    limit = select.PIPE_BUF - 4  # the Connection's 4-byte length header

    def send(frame) -> None:
        payload = pickle.dumps(("frame", frame), pickle.HIGHEST_PROTOCOL)
        if len(payload) > limit:
            raise BlockingIOError("frame does not fit one atomic write")
        os.set_blocking(fd, False)
        try:
            writer.send_bytes(payload)
        finally:
            os.set_blocking(fd, True)

    return send


def _worker_main(task_queue, writer, stream: bool) -> None:
    """Worker loop: take from the private queue, run, report; ``None`` ends.

    Results (and, when ``stream`` is set, telemetry frames) go down
    ``writer``, the write end of this worker's own result pipe.  SIGINT
    is ignored so a terminal Ctrl-C drains through the supervisor's
    graceful path instead of killing workers mid-point.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    pid = os.getpid()
    supervisor = os.getppid()
    shipper = None
    if stream:
        from repro.telemetry.live import TelemetryShipper

        shipper = TelemetryShipper(_frame_sender(writer), worker=pid)
        shipper.hello()
    while True:
        try:
            task = task_queue.get(timeout=1.0)
        except queue_module.Empty:
            # A SIGKILLed supervisor can't send sentinels; orphaned
            # workers notice the reparenting and exit on their own.
            if os.getppid() != supervisor:
                return
            if shipper is not None:
                shipper.heartbeat()  # idle liveness for the status plane
            continue
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if task is None:
            return
        task_id, attempt, spec, key = task
        result = run_attempt(spec, attempt, key, shipper)  # chaos may exit
        try:
            writer.send(("result", pid, task_id, attempt, result))
        except OSError:  # supervisor gone, or it closed our pipe
            return


class SupervisedPool:
    """A process pool that survives its own workers.

    Differences from :class:`~concurrent.futures.ProcessPoolExecutor`:

    * a dead worker is detected, its in-flight task failed transiently
      (``worker crashed``), and a replacement spawned — the pool never
      "breaks";
    * a worker silent for longer than ``hang_timeout`` seconds after
      dispatch is killed and replaced, its task failed transiently
      (``worker hung``) — hung simulations cannot wedge a campaign;
    * dispatch is supervisor-driven: each worker has a private task queue
      and the supervisor records ``worker -> task`` at the moment it
      dispatches, so a worker that dies before reporting *anything* is
      still charged with exactly its task.  Submissions beyond the idle
      workers wait in a supervisor-side backlog, so the caller bounds how
      much work is committed (which is what makes graceful draining and
      failure-budget aborts prompt).

    Each worker reports on its own result pipe, whose only write end it
    holds: no lock is shared between workers, so a worker that dies
    mid-write cannot starve the others, and its death shows up as EOF on
    its pipe.  Results and (for a streamed campaign) telemetry frames
    travel together on that pipe, in the order the worker sent them.

    Args:
        max_workers: Worker process count.
        hang_timeout: Seconds without completion after dispatch before a
            worker is declared hung (``None`` disables hang detection).
        counters: Optional dict that receives ``workers_respawned`` /
            ``workers_hung`` tallies (shared with the campaign engine).
        stream: Optional :class:`~repro.telemetry.live.LiveStatusPlane`.
            When set, workers ship telemetry frames, which go to its
            ``ingest``; its aggregator receives the supervisor-side health
            notifications — dispatch attribution (``worker_dispatched``),
            corpses (``worker_dead``) and hangs (``worker_hung``).
            Dispatch/death attribution is supervisor-side on purpose: a
            worker that dies between dispatch and its first heartbeat is
            still classified *dead* (never hung) with its last-known
            point.
    """

    def __init__(self, max_workers: int,
                 hang_timeout: Optional[float] = None,
                 counters: Optional[Dict[str, int]] = None,
                 stream=None) -> None:
        if max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1",
                                     max_workers=max_workers)
        if hang_timeout is not None and hang_timeout <= 0:
            raise ConfigurationError("hang_timeout must be positive",
                                     hang_timeout=hang_timeout)
        self.max_workers = max_workers
        self.hang_timeout = hang_timeout
        self.counters = counters if counters is not None else {}
        self.stream = stream
        self._context = multiprocessing.get_context()
        self._workers: Dict[int, multiprocessing.process.BaseProcess] = {}
        #: pid -> that worker's private task queue
        self._worker_queues: Dict[int, object] = {}
        #: pid -> read end of that worker's result pipe (until EOF)
        self._readers: Dict[int, object] = {}
        #: pid -> (task_id, attempt, dispatch monotonic time)
        self._assignments: Dict[int, Tuple[int, int, float]] = {}
        #: task_id -> (attempt, spec) for everything submitted, unfinished
        self._tasks: Dict[int, Tuple[int, ExperimentSpec]] = {}
        #: submitted but not yet dispatched to any worker
        self._backlog: deque = deque()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SupervisedPool":
        """Spawn the workers; idempotent."""
        if self._started:
            return self
        for _ in range(self.max_workers):
            self._spawn_worker()
        self._started = True
        return self

    def stop(self, force: bool = False) -> None:
        """Shut the pool down.

        Graceful stop sends one sentinel per worker and joins briefly;
        anything still alive afterwards (or everything, when ``force``) is
        killed — a supervised pool never leaves orphans behind.
        """
        if not self._started:
            return
        if not force:
            for pid in self._workers:
                try:
                    self._worker_queues[pid].put(None)
                except (KeyError, ValueError, OSError):  # pragma: no cover
                    pass
        for process in self._workers.values():
            if force:
                self._kill(process)
            else:
                process.join(timeout=1.0)
                if process.is_alive():
                    self._kill(process)
        self._workers.clear()
        self._assignments.clear()
        self._tasks.clear()
        self._backlog.clear()
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()
        for q in self._worker_queues.values():
            self._close_queue(q)
        self._worker_queues.clear()
        self._started = False

    # ------------------------------------------------------------------
    # Work submission and collection
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Submitted tasks that have not produced an event yet."""
        return len(self._tasks)

    def submit(self, task_id: int, attempt: int, spec: ExperimentSpec,
               key: Optional[str] = None) -> None:
        """Queue one attempt of one spec (``key``: its content key)."""
        if not self._started:
            raise ConfigurationError("pool is not started")
        self._tasks[task_id] = (attempt, spec)
        self._backlog.append((task_id, attempt, spec, key))
        self._dispatch()

    def events(self, timeout: float = 0.2
               ) -> List[Tuple[int, int, SpecResult]]:
        """Collect completions for up to ``timeout`` seconds.

        Returns ``(task_id, attempt, SpecResult)`` triples.  Failed
        results carry ``worker crashed`` / ``worker hung`` error text (the
        transient classes); the supervisor has already respawned the
        worker by the time the event is returned.  Telemetry frames read
        on the way go to the stream plane, whose ``status.json`` is
        rewritten when due.
        """
        # Imported here, not at the top: a serial campaign never needs it.
        from multiprocessing.connection import wait as wait_connections

        out: List[Tuple[int, int, SpecResult]] = []
        deadline = time.monotonic() + timeout
        while True:
            block = max(0.0, min(POLL_INTERVAL,
                                 deadline - time.monotonic()))
            owners = {reader: pid for pid, reader in self._readers.items()}
            if owners:
                for reader in wait_connections(list(owners), block):
                    self._read(owners[reader], out)
            else:
                time.sleep(block)
            self._check_workers(out)
            if self.stream is not None:
                self.stream.refresh_status()
            self._dispatch()
            if out or time.monotonic() >= deadline:
                return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        task_queue = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(task_queue, writer, self.stream is not None),
            daemon=True)
        process.start()
        # The worker now holds the only write end: no later sibling
        # inherits it, and the worker's death is EOF on ``reader``.
        writer.close()
        self._workers[process.pid] = process
        self._worker_queues[process.pid] = task_queue
        self._readers[process.pid] = reader

    def _dispatch(self) -> None:
        """Hand backlog tasks to idle workers, recording the assignment.

        Recording happens supervisor-side *before* the queue put, so even
        a worker that dies without ever sending a byte is charged with the
        task it was given.
        """
        if not self._backlog:
            return
        for pid in self._workers:
            if not self._backlog:
                return
            if pid in self._assignments:
                continue
            task = self._backlog.popleft()
            task_id, attempt, _, key = task
            self._assignments[pid] = (task_id, attempt, time.monotonic())
            if self.stream is not None:
                self.stream.aggregator.worker_dispatched(pid, key)
            self._worker_queues[pid].put(task)

    @staticmethod
    def _kill(process) -> None:
        try:
            process.kill()
        except (AttributeError, OSError):  # pragma: no cover - py<3.7 compat
            process.terminate()
        process.join(timeout=1.0)

    @staticmethod
    def _close_queue(q) -> None:
        try:
            q.close()
            q.cancel_join_thread()
        except (ValueError, OSError):  # pragma: no cover
            pass

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _read(self, pid: int, out) -> None:
        """Handle every message worker ``pid``'s pipe holds right now.

        EOF, a torn write or bytes that do not unpickle mean the worker is
        gone (or going): its reader is closed.  Liveness itself still
        comes from ``is_alive()`` in :meth:`_check_workers`.
        """
        reader = self._readers.get(pid)
        while reader is not None:
            try:
                if not reader.poll():
                    return
                message = reader.recv()
            except (EOFError, OSError, pickle.UnpicklingError):
                reader.close()
                del self._readers[pid]
                return
            self._handle(message, out)

    def _handle(self, message, out) -> None:
        if message[0] == "frame":
            if self.stream is not None:
                self.stream.ingest(message[1])
            return
        _, pid, task_id, attempt, result = message
        self._assignments.pop(pid, None)
        current = self._tasks.get(task_id)
        if current is None or current[0] != attempt:
            return  # stale: the task was already failed over and retried
        del self._tasks[task_id]
        out.append((task_id, attempt, result))

    def _check_workers(self, out) -> None:
        """Detect corpses and hangs; fail their tasks, respawn workers."""
        now = time.monotonic()
        for pid, process in list(self._workers.items()):
            dead = not process.is_alive()
            if dead:
                self._read(pid, out)  # keep a result sent just before death
            assignment = self._assignments.get(pid)
            hung = (not dead and self.hang_timeout is not None
                    and assignment is not None
                    and now - assignment[2] > self.hang_timeout)
            if not dead and not hung:
                continue
            del self._workers[pid]
            self._assignments.pop(pid, None)
            stale_queue = self._worker_queues.pop(pid, None)
            reader = self._readers.pop(pid, None)
            if reader is not None:
                reader.close()
            if self.stream is not None:
                # Dead wins over hung: the supervisor saw the corpse, so a
                # worker that died before its first heartbeat is reported
                # dead with its last-known (dispatched) point.
                if dead:
                    self.stream.aggregator.worker_dead(pid)
                else:
                    self.stream.aggregator.worker_hung(pid)
            if hung:
                self._kill(process)
                self._bump("workers_hung")
            if stale_queue is not None:
                self._close_queue(stale_queue)
            if assignment is not None:
                task_id, attempt, since = assignment
                current = self._tasks.get(task_id)
                if current is not None and current[0] == attempt:
                    del self._tasks[task_id]
                    if hung:
                        error = (f"worker hung: no completion within "
                                 f"{self.hang_timeout}s of dispatch")
                    else:
                        error = (f"worker crashed: exit code "
                                 f"{process.exitcode}")
                    out.append((task_id, attempt,
                                SpecResult(current[1], None, error=error)))
            self._bump("workers_respawned")
            if self.stream is not None:
                self.stream.aggregator.worker_respawned()
            self._spawn_worker()
