"""Crash-safe sweep campaigns: durable journal, resume, failure budgets.

A *campaign* is a sweep that survives anything short of losing the disk.
The engine wraps spec execution in a durable, content-addressed journal:

* ``manifest.json`` — the campaign header, written atomically once: the
  schema tag, the artifact metadata, and every spec (with its
  :meth:`~repro.harness.runner.ExperimentSpec.content_key`) in order.  A
  resume reconstructs the whole campaign from this file alone.
* ``journal.jsonl`` — append-only completions, one fsync'd JSON record per
  finished point keyed by spec content hash.  A crash can tear at most the
  final record, and the loader tolerates exactly that (a torn *interior*
  record means real corruption and fails loudly).

Specs equal but for ``injection_rate`` form a latency curve, cut at
saturation as its points land: the engine stops dispatching a curve at
its cut or at a permanently failed point (a pool may already have started
up to ``jobs - 1`` more).

Because each point is a deterministic seeded simulation, a resumed
campaign that skips journaled points and re-runs the rest produces a
results artifact **byte-identical** to an uninterrupted run — the
recovery path is proven by differential byte-identity (chaos suite,
``pytest -m chaos``), not assumed.

On top of durability the engine supervises its workers
(:mod:`repro.harness.supervision`): hung-worker detection and respawn,
transient-vs-deterministic failure classification, bounded
exponential-backoff retries with deterministic jitter, a per-campaign
failure budget, and graceful SIGINT/SIGTERM draining that always leaves a
valid resumable journal.  See docs/CAMPAIGNS.md.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.harness.runner import ExperimentSpec, check_curve_rates
from repro.harness.supervision import (
    TRANSIENT,
    RetryPolicy,
    SpecResult,
    SupervisedPool,
    classify_failure,
    error_class,
    run_attempt,
)
from repro.stats.results import atomic_write_text, canonical_json
from repro.stats.sweep import SaturationCursor, SweepPoint

#: Version tag of the campaign directory layout.
CAMPAIGN_SCHEMA = "repro.campaign/v1"

#: File names inside a campaign directory.
MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class CampaignJournal:
    """The append-only, fsync'd record of completed campaign points.

    Every :meth:`append` is flushed and fsync'd before returning, so a
    record either survives whole or (for the one being written at the
    instant of death) is torn at the tail — the only corruption
    :meth:`load` forgives.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self._handle = None

    # -- writing -------------------------------------------------------
    def open(self) -> "CampaignJournal":
        """Open for appending (creating the directory if needed)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        return self

    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record (flush + fsync before returning)."""
        if self._handle is None:
            raise ConfigurationError("journal is not open for appending")
        self._handle.write(canonical_json(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------
    def load(self) -> Tuple[List[Dict[str, object]], int]:
        """Read back all intact records; returns ``(records, torn)``.

        ``torn`` counts trailing records dropped because they were cut
        mid-write (0 or 1 by construction).  A malformed record anywhere
        *before* the tail is genuine corruption and raises.
        """
        if not self.path.exists():
            return [], 0
        raw = self.path.read_text(encoding="utf-8", errors="replace")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        records: List[Dict[str, object]] = []
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "key" not in record:
                    raise ValueError("not a journal record")
            except ValueError:
                if index == len(lines) - 1:
                    return records, 1  # torn tail: the crash we survive
                raise ConfigurationError(
                    "campaign journal is corrupt before its tail",
                    path=str(self.path), line=index + 1) from None
            records.append(record)
        return records, 0


def ok_record(key: str, attempt: int, result: SpecResult
              ) -> Dict[str, object]:
    """Journal record for a completed point.

    ``engine`` records which simulation engine actually produced the point
    (the spec's engine after precedence — a spec that leaves the field
    unset still resolves through environment/default at run time).  The
    journal is provenance: engines are bit-identical, but a resumed
    campaign must not silently mix engines (see ``_replay``).
    """
    return {"key": key, "attempt": attempt, "status": "ok",
            "engine": result.spec.effective_engine(),
            "point": result.point.to_dict(),
            "wall_time": result.wall_time}

def failed_record(key: str, attempt: int, result: SpecResult
                  ) -> Dict[str, object]:
    """Journal record for a permanently failed point."""
    return {"key": key, "attempt": attempt, "status": "failed",
            "error": result.error,
            "class": classify_failure(result.error)}


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def write_manifest(directory: Union[str, Path],
                   specs: Sequence[ExperimentSpec],
                   meta: Dict[str, object],
                   settings: Optional[Dict[str, object]] = None) -> Path:
    """Atomically write the campaign header.

    The manifest is the single source of truth for a resume: schema tag,
    artifact ``meta`` (reused verbatim when the artifact is finally
    written, so resumed artifacts carry identical metadata), optional
    ``settings`` (output path, latency cap), and the full ordered spec
    list with content keys.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": CAMPAIGN_SCHEMA,
        "meta": meta,
        "settings": settings or {},
        "specs": [{"key": spec.content_key(), "spec": spec.to_dict()}
                  for spec in specs],
    }
    return atomic_write_text(directory / MANIFEST_NAME,
                             canonical_json(payload) + "\n")


def load_manifest(directory: Union[str, Path]
                  ) -> Tuple[List[ExperimentSpec], Dict[str, object],
                             Dict[str, object]]:
    """Load and validate a manifest; returns ``(specs, meta, settings)``.

    Every spec is revalidated through
    :meth:`~repro.harness.runner.ExperimentSpec.from_dict` and its stored
    content key cross-checked against the recomputed one, so silent
    manifest corruption cannot mispair journal entries with specs.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise ConfigurationError("no campaign manifest found",
                                 path=str(path))
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigurationError(
            f"campaign manifest is not valid JSON ({exc})",
            path=str(path)) from None
    if not isinstance(payload, dict) \
            or payload.get("schema") != CAMPAIGN_SCHEMA:
        raise ConfigurationError("unsupported campaign schema",
                                 got=payload.get("schema")
                                 if isinstance(payload, dict) else None,
                                 expected=CAMPAIGN_SCHEMA)
    entries = payload.get("specs")
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError("campaign manifest carries no specs",
                                 path=str(path))
    specs: List[ExperimentSpec] = []
    for index, entry in enumerate(entries):
        raw = entry.get("spec") if isinstance(entry, dict) else None
        if not isinstance(raw, dict):
            raise ConfigurationError(
                "manifest spec entry must be an object holding a 'spec' "
                "object and its 'key'", path=str(path), index=index)
        spec = ExperimentSpec.from_dict(raw)
        if spec.content_key() != entry.get("key"):
            raise ConfigurationError(
                "manifest spec key mismatch (corrupt manifest?)",
                stored=entry.get("key"), computed=spec.content_key())
        specs.append(spec)
    meta = payload.get("meta") or {}
    settings = payload.get("settings") or {}
    if not isinstance(meta, dict) or not isinstance(settings, dict):
        raise ConfigurationError("manifest meta/settings must be objects")
    return specs, meta, settings


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class CampaignConfig:
    """Execution policy for one campaign run.

    ``stream`` controls the live observability plane
    (:mod:`repro.telemetry.live`): when True *and* the campaign has a
    directory, workers stream progress frames to the supervisor, which
    maintains a rolling ``status.json`` next to the journal for
    ``cli watch`` / ``cli serve-metrics``.  Streaming is observation
    only — result artifacts, journal records and content keys are
    byte-identical with it on or off (``--no-stream``).
    """

    jobs: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_failures: Optional[int] = None
    hang_timeout: Optional[float] = None
    latency_cap: float = 4.0
    stream: bool = True

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1", jobs=self.jobs)
        if self.max_failures is not None and self.max_failures < 0:
            raise ConfigurationError("max_failures must be >= 0",
                                     max_failures=self.max_failures)
        if self.hang_timeout is not None and self.hang_timeout <= 0:
            raise ConfigurationError("hang_timeout must be positive",
                                     hang_timeout=self.hang_timeout)
        if self.latency_cap <= 1.0:
            raise ConfigurationError("latency_cap must exceed 1.0",
                                     latency_cap=self.latency_cap)


@dataclass
class CampaignReport:
    """Outcome of one :meth:`CampaignEngine.run` invocation.

    Attributes:
        results: One ordered slot per spec; ``None`` for specs the
            campaign never dispatched (past a curve's cut or failure, or
            not reached before a drain or abort — resumable later).
        points: Each curve's kept prefix up to its saturation cut, in spec
            order (artifact contents).
        status: ``"completed"``, ``"failure-budget"`` or
            ``"interrupted:<SIGNAME>"``.
        clean: True when every curve's prefix reached its saturation cut
            or its last rate — the precondition for writing the results
            artifact.
        counters: Durability telemetry (resumed points, retries, worker
            respawns/hangs, failure classes, torn journal records).
    """

    results: List[Optional[SpecResult]]
    points: List[SweepPoint]
    status: str
    clean: bool
    counters: Dict[str, int]

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def failed(self) -> List[SpecResult]:
        """Permanently failed results, in spec order."""
        return [r for r in self.results if r is not None and not r.ok]


class _Curve:
    """One latency curve of a campaign and its saturation cut.

    ``indices`` are the curve's spec slots, rates ascending.  Landed
    results are pushed through one :class:`SaturationCursor` as far as
    they are contiguous from the lowest rate, so the cut is the one an
    uninterrupted serial sweep makes, whatever order points land in.
    """

    def __init__(self, indices: List[int], latency_cap: float) -> None:
        self.indices = indices
        self.cursor = SaturationCursor(latency_cap)
        self.kept = 0          # landed prefix pushed through the cursor
        self.stopped = False   # cut, or a failure ended the prefix
        #: The live plane's ``saturation`` block for this curve.
        self.verdict: Dict[str, object] = {
            "cut": False, "cut_rate": None, "sustained_rate": 0.0}

    def advance(self, results: List[Optional[SpecResult]]) -> None:
        while not self.stopped and self.kept < len(self.indices):
            result = results[self.indices[self.kept]]
            if result is None or not result.ok:
                self.stopped = result is not None
                return
            rate = result.point.injection_rate
            if self.cursor.push(result.point):
                self.verdict.update(cut=True, cut_rate=rate)
                self.stopped = True
            else:
                self.verdict["sustained_rate"] = rate
            self.kept += 1

    @property
    def clean(self) -> bool:
        return self.verdict["cut"] or self.kept == len(self.indices)


class CampaignEngine:
    """Runs a spec list to completion, durably, under supervision.

    Args:
        specs: Ordered specs.  Specs equal but for ``injection_rate`` are
            one curve, cut at saturation; its rates must ascend strictly
            in spec order.
        directory: Campaign directory for the durable journal; ``None``
            runs ephemerally (same engine, no files) — the path plain
            ``cli sweep`` uses.
        config: Execution policy (:class:`CampaignConfig`).

    Raises:
        ConfigurationError: No specs, or a curve whose rates do not
            ascend strictly.
    """

    def __init__(self, specs: Sequence[ExperimentSpec],
                 directory: Optional[Union[str, Path]] = None,
                 config: Optional[CampaignConfig] = None) -> None:
        self.specs = list(specs)
        if not self.specs:
            raise ConfigurationError("campaign needs at least one spec")
        self.keys: List[str] = []
        curves: Dict[str, List[int]] = {}
        for index, spec in enumerate(self.specs):
            key, curve_key = spec.content_and_curve_key()
            self.keys.append(key)
            curves.setdefault(curve_key, []).append(index)
        self._curve_indices = list(curves.values())
        #: Per spec: its curve's number and its position in that curve.
        self._slot: List[Tuple[int, int]] = [(0, 0)] * len(self.specs)
        for number, indices in enumerate(self._curve_indices):
            first = self.specs[indices[0]]
            check_curve_rates([self.specs[i].injection_rate for i in indices],
                              design=first.design, pattern=first.pattern)
            for position, index in enumerate(indices):
                self._slot[index] = (number, position)
        self._curves: List[_Curve] = []
        self.directory = Path(directory) if directory is not None else None
        self.config = config or CampaignConfig()
        self.counters: Dict[str, int] = {}
        self._drain = False
        self._signal: Optional[int] = None
        self._plane = None

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        """Execute (or resume) the campaign; always leaves a valid journal."""
        results: List[Optional[SpecResult]] = [None] * len(self.specs)
        self._curves = [_Curve(indices, self.config.latency_cap)
                        for indices in self._curve_indices]
        journal: Optional[CampaignJournal] = None
        if self.directory is not None:
            journal = CampaignJournal(self.directory)
            self._replay(journal, results)
            journal.open()
        for curve in self._curves:
            curve.advance(results)
        pending = [i for i, r in enumerate(results) if r is None]
        self._drain = False
        self._signal = None
        self._plane = self._start_plane(results)
        previous = self._install_signal_handlers()
        status = "error"
        try:
            if pending:
                if self.config.jobs == 1:
                    status = self._run_serial(pending, results, journal)
                else:
                    status = self._run_pool(pending, results, journal)
            else:
                status = "completed"
        finally:
            self._restore_signal_handlers(previous)
            if journal is not None:
                journal.close()
            if self._plane is not None:
                self._plane.stop(status)
                self._plane = None
        kept = sorted(index for curve in self._curves
                      for index in curve.indices[:curve.kept])
        return CampaignReport(
            results=results, points=[results[i].point for i in kept],
            status=status,
            clean=all(curve.clean for curve in self._curves),
            counters=dict(self.counters))

    # ------------------------------------------------------------------
    # Live observability plane
    # ------------------------------------------------------------------
    def _start_plane(self, results: List[Optional[SpecResult]]):
        """Start the live status plane (directory campaigns only).

        Failure to start degrades to an unobserved campaign — the plane
        can never take a sweep down with it.
        """
        if self.directory is None or not self.config.stream:
            return None
        from repro.telemetry.live import DEFAULT_HANG_AFTER, LiveStatusPlane

        plane = LiveStatusPlane(
            self.directory,
            keys=self.keys,
            rates=[spec.injection_rate for spec in self.specs],
            hang_after=self.config.hang_timeout or DEFAULT_HANG_AFTER,
            max_failures=self.config.max_failures,
        )
        if not plane.start().enabled:
            return None
        resumed = [i for i, r in enumerate(results) if r is not None]
        if resumed:
            plane.mark_resumed([self.keys[i] for i in resumed],
                               saturation=self._curve(resumed[-1]).verdict)
        return plane

    def _curve(self, index: int) -> _Curve:
        return self._curves[self._slot[index][0]]

    def _land(self, index: int, result: SpecResult,
              results: List[Optional[SpecResult]]) -> None:
        """Record a finished point, cut its curve, tell the live plane."""
        results[index] = result
        curve = self._curve(index)
        curve.advance(results)
        if self._plane is not None:
            self._plane.point_done(
                self.keys[index], result.ok, point=result.point,
                wall_time=result.wall_time,
                error_class=(None if result.ok
                             else error_class(result.error)),
                saturation=curve.verdict)

    def _notify_retry(self, key: str, attempt: int) -> None:
        if self._plane is not None:
            self._plane.point_retry(key, attempt)

    # ------------------------------------------------------------------
    # Journal replay (resume)
    # ------------------------------------------------------------------
    def _replay(self, journal: CampaignJournal,
                results: List[Optional[SpecResult]]) -> None:
        """Skip every point the journal already proves complete.

        Only ``ok`` records are replayed: permanent failures are re-run on
        resume, because resuming usually follows exactly the kind of chaos
        (a dead machine, a broken pool) that caused them.
        """
        records, torn = journal.load()
        if torn:
            self._bump("journal_torn_records", torn)
        completed: Dict[str, Dict[str, object]] = {}
        for record in records:
            if record.get("status") == "ok":
                completed[record["key"]] = record
        for index, key in enumerate(self.keys):
            record = completed.get(key)
            if record is None:
                continue
            journaled = record.get("engine")
            expected = self.specs[index].effective_engine()
            if journaled is not None and journaled != expected:
                # Engines are bit-identical, but a resume that silently
                # mixed engines would falsify the journal's provenance —
                # refuse and make the operator pick one.  (Pre-engine
                # journals carry no engine field and resume under any.)
                raise ConfigurationError(
                    "campaign journal was written under a different "
                    "engine; resume with the original engine or start a "
                    "fresh campaign directory",
                    journaled=journaled, resuming=expected,
                    directory=str(self.directory))
            point = SweepPoint.from_dict(record["point"])
            results[index] = SpecResult(
                self.specs[index], point,
                wall_time=float(record.get("wall_time", 0.0)))
            self._bump("points_resumed")

    # ------------------------------------------------------------------
    # Serial execution (jobs == 1)
    # ------------------------------------------------------------------
    def _run_serial(self, pending: List[int],
                    results: List[Optional[SpecResult]],
                    journal: Optional[CampaignJournal]) -> str:
        failures = len([r for r in results if r is not None and not r.ok])
        shipper = None
        if self._plane is not None:
            from repro.telemetry.live import TelemetryShipper

            shipper = TelemetryShipper(self._plane.ingest)
            shipper.hello()
        for index in pending:
            if self._drain:
                return self._interrupted()
            if self._curve(index).stopped:
                continue  # past its curve's cut or failure
            spec, key = self.specs[index], self.keys[index]
            attempt = 0
            while True:
                result = run_attempt(spec, attempt, key, shipper)
                if result.ok:
                    self._journal(journal, ok_record(key, attempt, result))
                    self._land(index, result, results)
                    break
                if self._retryable(result, attempt):
                    self._bump("retries")
                    self._notify_retry(key, attempt)
                    time.sleep(self.config.retry.delay(key, attempt))
                    attempt += 1
                    continue
                self._journal(journal, failed_record(key, attempt, result))
                self._land(index, result, results)
                failures += 1
                self._bump("failures_permanent")
                if self._budget_exhausted(failures):
                    return "failure-budget"
                break
        return self._interrupted() if self._drain else "completed"

    # ------------------------------------------------------------------
    # Supervised pool execution (jobs > 1)
    # ------------------------------------------------------------------
    def _run_pool(self, pending: List[int],
                  results: List[Optional[SpecResult]],
                  journal: Optional[CampaignJournal]) -> str:
        config = self.config
        pool = SupervisedPool(max_workers=config.jobs,
                              hang_timeout=config.hang_timeout,
                              counters=self.counters,
                              stream=self._plane)
        pool.start()
        status = "completed"
        failures = len([r for r in results if r is not None and not r.ok])
        feed: Dict[int, deque] = {}     # per curve: never submitted yet
        for index in pending:
            feed.setdefault(self._slot[index][0], deque()).append(index)
        retry_heap: List[Tuple[float, int]] = []  # backoff-waiting retries
        submitted: set = set()          # handed to the pool, result owed
        attempts: Dict[int, int] = {}
        # A small submission window keeps the workers' task queues nearly
        # empty, so draining or aborting stops promptly instead of letting
        # workers chew through a deep backlog of doomed tasks.
        window = config.jobs + 2
        try:
            while True:
                now = time.monotonic()
                halted = self._drain or status != "completed"
                if not halted:
                    while (retry_heap and retry_heap[0][0] <= now
                           and len(submitted) < window):
                        _, index = heapq.heappop(retry_heap)
                        pool.submit(index, attempts[index],
                                    self.specs[index], self.keys[index])
                        submitted.add(index)
                    while len(submitted) < window:
                        index = self._next_feed(feed)
                        if index is None:
                            break
                        attempts.setdefault(index, 0)
                        pool.submit(index, attempts[index],
                                    self.specs[index], self.keys[index])
                        submitted.add(index)
                if not submitted and (halted or not retry_heap):
                    break
                timeout = 0.2
                if retry_heap and not submitted:
                    timeout = max(0.01, min(0.2, retry_heap[0][0] - now))
                for index, attempt, result in pool.events(timeout=timeout):
                    if index not in submitted or attempt != attempts[index]:
                        continue  # stale duplicate from a failed-over task
                    submitted.discard(index)
                    key = self.keys[index]
                    if result.ok:
                        self._journal(journal,
                                      ok_record(key, attempt, result))
                        self._land(index, result, results)
                        continue
                    if not halted and self._retryable(result, attempt):
                        self._bump("retries")
                        self._notify_retry(key, attempt)
                        attempts[index] = attempt + 1
                        ready = (time.monotonic()
                                 + self.config.retry.delay(key, attempt))
                        heapq.heappush(retry_heap, (ready, index))
                        continue
                    self._journal(journal,
                                  failed_record(key, attempt, result))
                    self._land(index, result, results)
                    failures += 1
                    self._bump("failures_permanent")
                    if self._budget_exhausted(failures):
                        status = "failure-budget"
        finally:
            pool.stop(force=self._drain or status != "completed")
        if self._drain:
            return self._interrupted()
        return status

    def _next_feed(self, feed: Dict[int, deque]) -> Optional[int]:
        """Pop the next spec to submit, rate-major across curves.

        Of the curves whose lowest unsubmitted rate lies within ``jobs``
        points of their landed prefix, the one whose rate ranks lowest in
        its curve goes first (ties: the curve seen first), so workers
        spread over curves and no curve runs more than ``jobs - 1``
        points past its cut.  A cut or failed curve leaves the feed.
        """
        best = None
        for number, queue in list(feed.items()):
            curve = self._curves[number]
            position = self._slot[queue[0]][1]
            if curve.stopped:
                del feed[number]
            elif (position < curve.kept + self.config.jobs
                  and (best is None or position < best[0])):
                best = (position, number)
        if best is None:
            return None
        queue = feed[best[1]]
        index = queue.popleft()
        if not queue:
            del feed[best[1]]
        return index

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _journal(self, journal: Optional[CampaignJournal],
                 record: Dict[str, object]) -> None:
        if journal is not None:
            journal.append(record)

    def _retryable(self, result: SpecResult, attempt: int) -> bool:
        if classify_failure(result.error) != TRANSIENT:
            return False
        self._bump("failures_transient")
        return attempt < self.config.retry.retries and not self._drain

    def _budget_exhausted(self, failures: int) -> bool:
        budget = self.config.max_failures
        return budget is not None and failures > budget

    def _interrupted(self) -> str:
        try:
            name = signal.Signals(self._signal).name
        except (ValueError, TypeError):  # pragma: no cover
            name = str(self._signal)
        return f"interrupted:{name}"

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _handle_signal(self, signum, frame) -> None:
        self._drain = True
        if self._signal is None:
            self._signal = signum

    def _install_signal_handlers(self):
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum,
                                                 self._handle_signal)
            except (ValueError, OSError):
                # Not the main thread (tests, embedding): run without
                # graceful draining rather than refusing to run at all.
                pass
        return previous

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
