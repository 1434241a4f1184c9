"""Unit tests for worker supervision: classification, retries, the pool.

Pool tests spawn real worker processes; windows stay tiny and the chaos
hook (``REPRO_CHAOS``) provides deterministic crashes and hangs.  Workers
are forked, so monkeypatching the environment before ``start()`` is how
chaos reaches them.
"""

import time

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.harness.chaos import CHAOS_ENV, CRASH_EXIT_CODE
from repro.harness.runner import ExperimentSpec
from repro.harness.supervision import (
    DETERMINISTIC,
    TRANSIENT,
    RetryPolicy,
    SpecResult,
    SupervisedPool,
    classify_failure,
    error_class,
    run_attempt,
)

TINY = SimulationConfig(warmup_cycles=50, measure_cycles=200,
                        drain_cycles=150, deadlock_abort_cycles=300)


def tiny_spec(**overrides):
    kwargs = dict(design="spin_mesh", pattern="uniform", injection_rate=0.05,
                  mesh_side=4, tdd=32, sim=TINY)
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class RaisingSpec(ExperimentSpec):
    """A spec whose run() raises a plain Python exception."""

    def run(self, raise_on_wedge=False):
        raise RuntimeError("synthetic point failure")


def drain_events(pool, expected, deadline_seconds=30.0):
    """Collect events until ``expected`` results arrive (or time out)."""
    collected = []
    deadline = time.monotonic() + deadline_seconds
    while len(collected) < expected:
        assert time.monotonic() < deadline, (
            f"pool produced {len(collected)}/{expected} events in time")
        collected.extend(pool.events(timeout=0.2))
    return collected


class TestClassification:
    def test_transient_prefixes(self):
        for error in ("worker crashed: exit code 9",
                      "worker hung: no completion within 1.0s of pickup",
                      "timeout: point exceeded 5s",
                      "not run: worker pool broke earlier"):
            assert classify_failure(error) == TRANSIENT

    def test_spec_exception_is_deterministic(self):
        assert classify_failure(
            "worker raised:\nTraceback ...") == DETERMINISTIC

    def test_empty_error_is_deterministic(self):
        assert classify_failure(None) == DETERMINISTIC
        assert classify_failure("") == DETERMINISTIC

    def test_error_class_labels(self):
        assert error_class("worker crashed: exit code 9") == "worker crashed"
        assert error_class("timeout: point exceeded 5s") == "timeout"
        assert error_class("worker raised:\nTraceback") == "worker raised"
        assert error_class(None) == "unknown"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError, match="backoff"):
            RetryPolicy(base=-0.5)

    def test_delay_deterministic(self):
        policy = RetryPolicy(retries=3, base=0.25, cap=8.0)
        delays = [policy.delay("somekey", a) for a in range(4)]
        assert delays == [policy.delay("somekey", a) for a in range(4)]

    def test_delay_exponential_and_capped(self):
        policy = RetryPolicy(retries=8, base=0.25, cap=2.0)
        for attempt in range(8):
            bounded = min(2.0, 0.25 * 2.0 ** attempt)
            delay = policy.delay("k", attempt)
            assert 0.5 * bounded <= delay <= bounded

    def test_jitter_varies_by_key(self):
        policy = RetryPolicy()
        delays = {policy.delay(f"key{i}", 0) for i in range(16)}
        assert len(delays) > 1


class TestRunAttempt:
    def test_success_returns_point(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        result = run_attempt(tiny_spec())
        assert result.ok
        assert result.point.injection_rate == 0.05
        assert result.wall_time > 0.0

    def test_spec_exception_captured_as_worker_raised(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        result = run_attempt(tiny_spec(pattern="nonexistent"))
        assert not result.ok
        assert result.error.startswith("worker raised:")
        assert classify_failure(result.error) == DETERMINISTIC

    def test_chaos_fail_hits_attempt_zero_only(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "fail:p=1.0")
        failed = run_attempt(tiny_spec(), attempt=0)
        assert not failed.ok and "chaos" in failed.error
        retried = run_attempt(tiny_spec(), attempt=1)
        assert retried.ok

    def test_raising_spec_captured_with_its_traceback(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        spec = RaisingSpec(design="spin_mesh", injection_rate=0.05,
                           mesh_side=4, sim=TINY)
        result = run_attempt(spec)
        assert result.point is None
        assert result.error.startswith("worker raised:\nTraceback")
        assert "RuntimeError: synthetic point failure" in result.error
        assert result.wall_time >= 0.0

    def test_result_keeps_its_spec_for_resubmission(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        good, bad = tiny_spec(), tiny_spec(pattern="nonexistent")
        assert run_attempt(good).spec is good
        failed = run_attempt(bad)
        assert failed.spec is bad
        assert run_attempt(failed.spec).error.startswith("worker raised:")


class TestSpecResult:
    def test_ok_needs_a_point_and_no_error(self):
        spec, point = tiny_spec(), object()
        assert SpecResult(spec, point).ok
        assert not SpecResult(spec, None).ok
        assert not SpecResult(spec, point, error="worker hung").ok

    def test_failure_record_defaults(self):
        record = SpecResult(tiny_spec(), None)
        assert record.error is None
        assert record.wall_time == 0.0


class TestSupervisedPoolValidation:
    def test_bad_workers(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            SupervisedPool(max_workers=0)

    def test_bad_hang_timeout(self):
        with pytest.raises(ConfigurationError, match="hang_timeout"):
            SupervisedPool(max_workers=1, hang_timeout=0)

    def test_submit_before_start_rejected(self):
        with pytest.raises(ConfigurationError, match="not started"):
            SupervisedPool(max_workers=1).submit(0, 0, tiny_spec())


class TestSupervisedPool:
    def test_runs_specs_to_completion(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        specs = tiny_spec().curve([0.02, 0.05, 0.08])
        pool = SupervisedPool(max_workers=2).start()
        try:
            for task_id, spec in enumerate(specs):
                pool.submit(task_id, 0, spec)
            events = drain_events(pool, len(specs))
        finally:
            pool.stop()
        assert sorted(task_id for task_id, _, _ in events) == [0, 1, 2]
        assert all(result.ok for _, _, result in events)
        by_id = {task_id: result for task_id, _, result in events}
        assert by_id[0].point.injection_rate == 0.02

    def test_spec_exception_reported_without_losing_the_worker(
            self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        counters = {}
        pool = SupervisedPool(max_workers=1, counters=counters).start()
        try:
            pool.submit(0, 0, tiny_spec(pattern="nonexistent"))
            (_, _, failed), = drain_events(pool, 1)
            pool.submit(1, 0, tiny_spec())
            (_, _, succeeded), = drain_events(pool, 1)
        finally:
            pool.stop()
        assert failed.error.startswith("worker raised:")
        assert "nonexistent" in failed.error
        assert succeeded.ok
        assert counters.get("workers_respawned", 0) == 0

    def test_crash_detected_and_worker_respawned(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:p=1.0")
        counters = {}
        pool = SupervisedPool(max_workers=2, counters=counters).start()
        try:
            spec = tiny_spec()
            pool.submit(0, 0, spec)
            (task_id, attempt, result), = drain_events(pool, 1)
            assert (task_id, attempt) == (0, 0)
            assert not result.ok
            assert "worker crashed" in result.error
            assert str(CRASH_EXIT_CODE) in result.error
            assert classify_failure(result.error) == TRANSIENT
            # The pool must still be serviceable: the chaos rule spares
            # attempt 1, so the retry lands on a respawned worker.
            pool.submit(0, 1, spec)
            (_, retry_attempt, retried), = drain_events(pool, 1)
            assert retry_attempt == 1
            assert retried.ok
        finally:
            pool.stop()
        assert counters.get("workers_respawned", 0) >= 1

    def test_hang_detected_killed_and_respawned(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang:p=1.0,hang=60")
        counters = {}
        pool = SupervisedPool(max_workers=1, hang_timeout=0.5,
                              counters=counters).start()
        try:
            spec = tiny_spec()
            pool.submit(0, 0, spec)
            (task_id, attempt, result), = drain_events(pool, 1)
            assert (task_id, attempt) == (0, 0)
            assert not result.ok
            assert "worker hung" in result.error
            assert classify_failure(result.error) == TRANSIENT
            pool.submit(0, 1, spec)
            (_, _, retried), = drain_events(pool, 1)
            assert retried.ok
        finally:
            pool.stop()
        assert counters.get("workers_hung", 0) >= 1
        assert counters.get("workers_respawned", 0) >= 1

    def test_stop_is_idempotent_and_kills_workers(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        pool = SupervisedPool(max_workers=2).start()
        workers = list(pool._workers.values())
        pool.stop()
        pool.stop()
        assert all(not process.is_alive() for process in workers)
