"""Unit tests for the crash-safe campaign engine.

Everything here runs in-process (serial engine, jobs=1) or with tiny
worker pools; the full kill -9 / resume byte-identity proof lives in the
chaos suite (tests/integration/test_campaign_resume.py, ``-m chaos``).
"""

import json
import os

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.harness.campaign import (
    CAMPAIGN_SCHEMA,
    CampaignConfig,
    CampaignEngine,
    CampaignJournal,
    JOURNAL_NAME,
    MANIFEST_NAME,
    assemble_curve,
    failed_record,
    load_manifest,
    ok_record,
    write_manifest,
)
from repro.harness.chaos import CHAOS_ENV, tear_journal_tail
from repro.harness.runner import ExperimentSpec
from repro.harness.supervision import RetryPolicy, SpecResult, run_attempt
from repro.stats.results import results_to_json

TINY = SimulationConfig(warmup_cycles=50, measure_cycles=200,
                        drain_cycles=150, deadlock_abort_cycles=300)


def tiny_spec(**overrides):
    kwargs = dict(design="spin_mesh", pattern="uniform", injection_rate=0.05,
                  mesh_side=4, tdd=32, sim=TINY)
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def tiny_curve(rates=(0.02, 0.05, 0.08)):
    return tiny_spec().curve(list(rates))


def run_in_process(specs):
    return [run_attempt(spec) for spec in specs]


class CrashingSpec(ExperimentSpec):
    """A spec whose run() kills its worker process outright (OOM-kill,
    segfault).  Module level so the pool can pickle it."""

    def run(self, raise_on_wedge=False):  # pragma: no cover - child only
        os._exit(3)


@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)


class TestContentKey:
    def test_stable_and_hexadecimal(self):
        key = tiny_spec().content_key()
        assert key == tiny_spec().content_key()
        assert len(key) == 16
        int(key, 16)

    def test_distinguishes_specs(self):
        assert (tiny_spec(injection_rate=0.02).content_key()
                != tiny_spec(injection_rate=0.05).content_key())
        assert (tiny_spec(seed=1).content_key()
                != tiny_spec(seed=2).content_key())

    def test_roundtrip_preserves_key(self):
        spec = tiny_spec()
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.content_key() == spec.content_key()


class TestJournal:
    def _result(self, spec):
        return run_attempt(spec)

    def test_append_load_roundtrip(self, tmp_path):
        spec = tiny_spec()
        result = self._result(spec)
        journal = CampaignJournal(tmp_path).open()
        journal.append(ok_record(spec.content_key(), 0, result))
        journal.append(failed_record(
            "deadbeef00000000", 2,
            SpecResult(spec, None, error="worker crashed: exit code 9")))
        journal.close()
        records, torn = CampaignJournal(tmp_path).load()
        assert torn == 0
        assert len(records) == 2
        assert records[0]["status"] == "ok"
        assert records[0]["key"] == spec.content_key()
        assert records[1]["status"] == "failed"
        assert records[1]["class"] == "transient"

    def test_append_requires_open(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not open"):
            CampaignJournal(tmp_path).append({"key": "k"})

    def test_missing_journal_loads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path).load() == ([], 0)

    def test_torn_tail_forgiven(self, tmp_path):
        spec = tiny_spec()
        result = self._result(spec)
        journal = CampaignJournal(tmp_path).open()
        for attempt in range(3):
            journal.append(ok_record(f"{attempt:016x}", attempt, result))
        journal.close()
        tear_journal_tail(tmp_path / JOURNAL_NAME)
        records, torn = CampaignJournal(tmp_path).load()
        assert torn == 1
        assert [r["key"] for r in records] == [f"{a:016x}" for a in (0, 1)]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        good = json.dumps({"key": "a", "status": "ok"})
        path.write_text(good + "\n{torn-gar" + "\n" + good + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            CampaignJournal(tmp_path).load()


class TestManifest:
    def test_roundtrip(self, tmp_path):
        specs = tiny_curve()
        meta = {"design": "spin_mesh", "rates": [0.02, 0.05, 0.08]}
        write_manifest(tmp_path, specs, meta, {"output": "out.json"})
        loaded, got_meta, settings = load_manifest(tmp_path)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in specs]
        assert got_meta == meta
        assert settings == {"output": "out.json"}
        payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert payload["schema"] == CAMPAIGN_SCHEMA

    def test_write_is_atomic_no_temp_left(self, tmp_path):
        write_manifest(tmp_path, tiny_curve(), {})
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="manifest"):
            load_manifest(tmp_path)

    def test_bad_schema_rejected(self, tmp_path):
        write_manifest(tmp_path, tiny_curve(), {})
        path = tmp_path / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["schema"] = "repro.campaign/v999"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="schema"):
            load_manifest(tmp_path)

    def test_key_tamper_detected(self, tmp_path):
        write_manifest(tmp_path, tiny_curve(), {})
        path = tmp_path / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["specs"][1]["spec"]["injection_rate"] = 0.99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="key mismatch"):
            load_manifest(tmp_path)

    def test_invalid_json_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_manifest(tmp_path)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            CampaignConfig(jobs=0)
        with pytest.raises(ConfigurationError, match="max_failures"):
            CampaignConfig(max_failures=-1)
        with pytest.raises(ConfigurationError, match="hang_timeout"):
            CampaignConfig(hang_timeout=0)
        with pytest.raises(ConfigurationError, match="latency_cap"):
            CampaignConfig(latency_cap=1.0)

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            CampaignEngine([])

    def test_default_runs_in_process_without_a_pool(self, monkeypatch):
        from repro.harness import campaign as campaign_module

        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 must not start a worker pool")

        monkeypatch.setattr(campaign_module, "SupervisedPool", no_pool)
        assert CampaignConfig().jobs == 1
        report = CampaignEngine([tiny_spec()]).run()
        assert report.completed and report.clean


class TestAssembleCurve:
    def _results(self, specs):
        return run_in_process(specs)

    def test_clean_full_prefix(self):
        results = self._results(tiny_curve())
        points, saturation, clean = assemble_curve(results)
        assert clean
        assert [p.injection_rate for p in points] == [0.02, 0.05, 0.08]
        assert saturation == 0.08

    def test_missing_point_marks_dirty(self):
        results = self._results(tiny_curve())
        results[1] = None
        points, _, clean = assemble_curve(results)
        assert not clean
        assert [p.injection_rate for p in points] == [0.02]

    def test_failed_point_marks_dirty(self):
        results = self._results(tiny_curve())
        results[0] = SpecResult(results[0].spec, None, error="boom")
        points, _, clean = assemble_curve(results)
        assert not clean and points == []

    def test_saturated_curve_cut_ignores_tail(self):
        # A wedged absurd-rate point saturates the cursor; later slots may
        # even be empty without dirtying the artifact (they are past the cut).
        specs = tiny_spec().curve([0.02, 0.9, 0.95])
        results = self._results(specs[:2]) + [None]
        points, _, clean = assemble_curve(results)
        assert clean
        assert len(points) == 2


class TestEngineSerial:
    def test_ephemeral_run_matches_in_process_runs(self):
        specs = tiny_curve()
        report = CampaignEngine(specs).run()
        assert report.completed and report.clean
        baseline = run_in_process(specs)
        assert [p for p in report.points] == [r.point for r in baseline]
        assert report.saturation_rate == 0.08
        assert report.failed == []

    def test_results_ordered_with_wall_times(self):
        report = CampaignEngine(tiny_curve()).run()
        assert [r.spec.injection_rate for r in report.results] \
            == [0.02, 0.05, 0.08]
        assert all(isinstance(r, SpecResult) and r.ok
                   for r in report.results)
        assert all(r.point.cycles == TINY.total_cycles
                   for r in report.results)
        assert all(r.wall_time > 0.0 for r in report.results)

    def test_campaign_directory_journal_written(self, tmp_path):
        specs = tiny_curve()
        report = CampaignEngine(specs, directory=tmp_path).run()
        assert report.completed
        records, torn = CampaignJournal(tmp_path).load()
        assert torn == 0
        assert [r["key"] for r in records] == [s.content_key() for s in specs]
        assert all(r["status"] == "ok" for r in records)

    def test_resume_skips_completed_points(self, tmp_path):
        specs = tiny_curve()
        CampaignEngine(specs, directory=tmp_path).run()
        resumed = CampaignEngine(specs, directory=tmp_path).run()
        assert resumed.completed and resumed.clean
        assert resumed.counters.get("points_resumed") == len(specs)

    def test_resume_from_journal_prefix_is_byte_identical(self, tmp_path):
        specs = tiny_curve()
        golden = CampaignEngine(specs, directory=tmp_path / "gold").run()
        golden_text = results_to_json(golden.points, {"m": 1})
        # Simulate a crash after the first fsync'd record: keep only the
        # journal's first line, then resume into the same artifact.
        gold_journal = (tmp_path / "gold" / JOURNAL_NAME).read_text()
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / JOURNAL_NAME).write_text(
            gold_journal.split("\n")[0] + "\n")
        resumed = CampaignEngine(specs, directory=partial).run()
        assert resumed.counters.get("points_resumed") == 1
        assert results_to_json(resumed.points, {"m": 1}) == golden_text

    def test_resume_after_torn_tail(self, tmp_path):
        specs = tiny_curve()
        golden = CampaignEngine(specs, directory=tmp_path).run()
        tear_journal_tail(tmp_path / JOURNAL_NAME)
        resumed = CampaignEngine(specs, directory=tmp_path).run()
        assert resumed.counters.get("journal_torn_records") == 1
        assert resumed.counters.get("points_resumed") == len(specs) - 1
        assert resumed.points == golden.points

    def test_deterministic_failure_journaled_not_retried(self, tmp_path):
        specs = [tiny_spec(), tiny_spec(pattern="nonexistent")]
        report = CampaignEngine(specs, directory=tmp_path).run()
        assert report.completed and not report.clean
        assert len(report.failed) == 1
        assert report.counters.get("retries", 0) == 0
        records, _ = CampaignJournal(tmp_path).load()
        failed = [r for r in records if r["status"] == "failed"]
        assert len(failed) == 1 and failed[0]["class"] == "deterministic"

    def test_failed_records_rerun_on_resume(self, tmp_path):
        specs = [tiny_spec(), tiny_spec(pattern="nonexistent")]
        CampaignEngine(specs, directory=tmp_path).run()
        resumed = CampaignEngine(specs, directory=tmp_path).run()
        # Only the ok point is replayed; the failure is attempted again.
        assert resumed.counters.get("points_resumed") == 1
        assert len(resumed.failed) == 1

    def test_failure_budget_aborts(self):
        specs = [tiny_spec(pattern="nonexistent"),
                 tiny_spec(pattern="nonexistent", injection_rate=0.06),
                 tiny_spec(injection_rate=0.07)]
        config = CampaignConfig(max_failures=0)
        report = CampaignEngine(specs, config=config).run()
        assert report.status == "failure-budget"
        assert not report.completed

    def test_failure_captured_not_raised(self):
        # "nonexistent" passes ExperimentSpec validation (patterns are
        # resolved at build time), then make_pattern raises in the attempt.
        specs = [tiny_spec(), tiny_spec(pattern="nonexistent")]
        report = CampaignEngine(specs).run()
        assert report.completed
        assert report.results[0].ok
        assert report.results[1].point is None
        assert "nonexistent" in report.results[1].error

    def test_failure_budget_leaves_later_specs_unrun(self):
        specs = [tiny_spec(pattern="nonexistent"),
                 tiny_spec(injection_rate=0.06),
                 tiny_spec(injection_rate=0.07)]
        config = CampaignConfig(max_failures=0)
        report = CampaignEngine(specs, config=config).run()
        # One slot per spec: the later ones are reported as not reached
        # (resumable), never silently dropped.
        assert len(report.results) == len(specs)
        assert not report.results[0].ok
        assert report.results[1:] == [None, None]
        assert not report.clean

    def test_transient_failures_retried_with_backoff(self, monkeypatch):
        from repro.harness import campaign as campaign_module

        spec = tiny_spec()
        calls = []

        def flaky(run_spec, attempt):
            calls.append(attempt)
            if attempt < 2:
                return SpecResult(run_spec, None,
                                  error="worker crashed: synthetic")
            from repro.harness.supervision import run_attempt as real
            return real(run_spec, attempt)

        monkeypatch.setattr(campaign_module, "run_attempt", flaky)
        monkeypatch.setattr(campaign_module.time, "sleep", lambda _s: None)
        config = CampaignConfig(retry=RetryPolicy(retries=2, base=0.01))
        report = CampaignEngine([spec], config=config).run()
        assert report.completed and report.clean
        assert calls == [0, 1, 2]
        assert report.counters.get("retries") == 2

    def test_retries_exhausted_becomes_permanent(self, monkeypatch):
        from repro.harness import campaign as campaign_module

        monkeypatch.setattr(
            campaign_module, "run_attempt",
            lambda spec, attempt: SpecResult(
                spec, None, error="worker crashed: synthetic"))
        monkeypatch.setattr(campaign_module.time, "sleep", lambda _s: None)
        config = CampaignConfig(retry=RetryPolicy(retries=1, base=0.01))
        report = CampaignEngine([tiny_spec()], config=config).run()
        assert report.completed and not report.clean
        assert len(report.failed) == 1
        assert report.counters.get("retries") == 1
        assert report.counters.get("failures_permanent") == 1


class TestEnginePool:
    def test_pool_matches_serial_bytes(self):
        specs = tiny_curve()
        serial = CampaignEngine(specs, config=CampaignConfig(jobs=1)).run()
        pooled = CampaignEngine(specs, config=CampaignConfig(jobs=2)).run()
        assert pooled.completed and pooled.clean
        assert (results_to_json(pooled.points, {})
                == results_to_json(serial.points, {}))

    def test_chaos_crashes_recovered_by_retries(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:p=1.0,seed=5")
        specs = tiny_curve()
        config = CampaignConfig(jobs=2, retry=RetryPolicy(retries=2,
                                                          base=0.01))
        report = CampaignEngine(specs, directory=tmp_path,
                                config=config).run()
        assert report.completed and report.clean
        assert report.counters.get("retries", 0) >= len(specs)
        assert report.counters.get("workers_respawned", 0) >= len(specs)
        monkeypatch.delenv(CHAOS_ENV)
        golden = CampaignEngine(specs).run()
        assert report.points == golden.points

    def test_pool_failure_captured_alongside_successes(self):
        specs = [tiny_spec(), tiny_spec(pattern="nonexistent"),
                 tiny_spec(injection_rate=0.08)]
        report = CampaignEngine(specs, config=CampaignConfig(jobs=2)).run()
        assert report.completed
        assert report.results[0].ok and report.results[2].ok
        assert not report.results[1].ok
        assert "nonexistent" in report.results[1].error

    def test_worker_crash_fails_its_spec_and_the_rest_run(self):
        crash = CrashingSpec(design="spin_mesh", injection_rate=0.05,
                             mesh_side=4, sim=TINY, seed=9)
        curve = tiny_curve()
        config = CampaignConfig(jobs=2, retry=RetryPolicy(retries=0))
        report = CampaignEngine([crash] + curve, config=config).run()
        assert report.completed
        assert report.results[0].error.startswith("worker crashed")
        assert report.counters.get("workers_respawned", 0) >= 1
        assert [r.point for r in report.results[1:]] \
            == [r.point for r in run_in_process(curve)]

    def test_crash_retried_on_respawned_workers_then_permanent(self):
        crash = CrashingSpec(design="spin_mesh", injection_rate=0.05,
                             mesh_side=4, sim=TINY, seed=9)
        config = CampaignConfig(jobs=2, retry=RetryPolicy(retries=1,
                                                          base=0.01))
        report = CampaignEngine([crash, tiny_spec()], config=config).run()
        assert report.completed
        assert report.results[0].error.startswith("worker crashed")
        assert report.results[1].ok
        assert report.counters.get("retries") == 1
        assert report.counters.get("failures_permanent") == 1
        assert report.counters.get("workers_respawned", 0) >= 2

    def test_more_jobs_than_specs_matches_in_process(self):
        specs = tiny_curve((0.02, 0.05))
        report = CampaignEngine(specs, config=CampaignConfig(jobs=4)).run()
        assert report.completed and report.clean
        assert report.points == [r.point for r in run_in_process(specs)]

    def test_pool_failure_budget_aborts(self):
        specs = [tiny_spec(pattern="nonexistent", injection_rate=r)
                 for r in (0.02, 0.05)] + [tiny_spec(injection_rate=0.08)]
        config = CampaignConfig(jobs=2, max_failures=0)
        report = CampaignEngine(specs, config=config).run()
        assert report.status == "failure-budget"


class TestAtomicSave:
    def test_save_results_leaves_no_temp_file(self, tmp_path):
        from repro.stats.results import load_results, save_results

        results = run_in_process(tiny_curve())
        target = tmp_path / "out.json"
        save_results(target, [r.point for r in results], {"design": "x"})
        assert not list(tmp_path.glob("*.tmp"))
        points, meta = load_results(target)
        assert len(points) == 3 and meta["design"] == "x"

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        from repro.stats.results import atomic_write_text

        target = tmp_path / "out.json"
        target.write_text("much longer previous content than the new one")
        atomic_write_text(target, "short")
        assert target.read_text() == "short"
        assert not list(tmp_path.glob("*.tmp"))
