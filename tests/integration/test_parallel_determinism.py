"""Parallel-vs-serial determinism: ``--jobs N`` must reproduce ``--jobs 1``.

This is the load-bearing guarantee of the spec-based sweep engine: every
point is built from a self-contained picklable :class:`ExperimentSpec`, so
where the point executes (parent process or worker N) cannot change the
measurement.  The tests check both the in-memory :class:`SweepPoint`
equality and the byte-level results-file identity.
"""

import json

import pytest

from repro.cli import main
from repro.config import SimulationConfig
from repro.harness.campaign import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    CampaignConfig,
    CampaignEngine,
)
from repro.harness.runner import ExperimentSpec
from repro.stats.results import (
    canonical_json,
    results_from_json,
    results_to_json,
)
from repro.stats.sweep import curve_saturation_rate
from repro.telemetry.live import STATUS_NAME

SIM = SimulationConfig(warmup_cycles=100, measure_cycles=500,
                       drain_cycles=400, deadlock_abort_cycles=600)
RATES = [0.02, 0.05, 0.08, 0.11]
CURVE = ExperimentSpec(design="spin_mesh", mesh_side=4, tdd=32, sim=SIM)


def _points(specs, jobs):
    report = CampaignEngine(specs, config=CampaignConfig(jobs=jobs)).run()
    results = report.results
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    return [r.point for r in results]


class TestPointIdentity:
    def test_jobs4_equals_jobs1_per_seed(self):
        """Identical SweepPoints per seed across --jobs 1 and --jobs 4."""
        specs = [spec
                 for seed in (1, 2)
                 for spec in ExperimentSpec(
                     design="spin_mesh", seed=seed, mesh_side=4, tdd=32,
                     sim=SIM).curve(RATES)]
        assert _points(specs, jobs=1) == _points(specs, jobs=4)

    def test_faulty_points_identical_across_backends(self):
        base = ExperimentSpec(design="spin_mesh", pattern="transpose",
                              injection_rate=RATES[0], mesh_side=4, tdd=32,
                              faults="sm_drop:p=0.05", fault_seed=11, sim=SIM)
        specs = base.curve(RATES[:3])
        assert _points(specs, jobs=1) == _points(specs, jobs=3)

    def test_curve_points_and_saturation_match_across_jobs(self):
        specs = CURVE.curve(RATES)
        serial = _curve(specs, jobs=1)
        pooled = _curve(specs, jobs=4)
        assert pooled.points == serial.points
        assert (curve_saturation_rate(pooled.points)
                == curve_saturation_rate(serial.points))


def _curve(specs, jobs, **config):
    return CampaignEngine(
        specs, config=CampaignConfig(jobs=jobs, **config)).run()


def _dispatched(report):
    return [r.spec.injection_rate for r in report.results if r is not None]


class TestCurveCutAcrossJobs:
    #: Saturates at 0.9 (index 2).
    CUT_RATES = [0.02, 0.04, 0.9, 0.95, 0.99]

    @pytest.mark.parametrize("jobs", [2, 3, 4, 5])
    def test_cut_matches_serial_and_overruns_by_at_most_jobs_minus_1(
            self, jobs):
        specs = CURVE.curve(self.CUT_RATES)
        serial = _curve(specs, jobs=1)
        pooled = _curve(specs, jobs=jobs)
        assert len(serial.points) == 3 < len(self.CUT_RATES)
        assert _dispatched(serial) == self.CUT_RATES[:3]
        assert pooled.points == serial.points
        assert pooled.clean and pooled.failed == []
        overrun = len(_dispatched(pooled)) - len(pooled.points)
        assert 0 <= overrun <= jobs - 1

    def test_unsaturated_curve_runs_every_rate(self):
        rates = [0.02, 0.04, 0.06]
        serial = _curve(CURVE.curve(rates), jobs=1)
        pooled = _curve(CURVE.curve(rates), jobs=2)
        assert pooled.points == serial.points
        assert _dispatched(pooled) == rates
        assert len(pooled.points) == len(rates)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_latency_cap_is_honoured_at_every_jobs(self, jobs):
        specs = CURVE.curve(RATES)
        default = _curve(specs, jobs=1)
        tight = _curve(specs, jobs=1, latency_cap=1.05)
        assert len(tight.points) < len(default.points)
        capped = _curve(specs, jobs=jobs, latency_cap=1.05)
        assert capped.points == tight.points
        assert len(_dispatched(capped)) - len(capped.points) <= jobs - 1

    def test_failed_point_lands_in_report_failed(self):
        specs = ExperimentSpec(design="spin_mesh", pattern="nonexistent",
                               mesh_side=4, tdd=32, sim=SIM).curve(RATES)
        report = _curve(specs, jobs=2)
        assert report.completed and not report.clean
        assert report.failed and report.points == []
        assert all("nonexistent" in r.error for r in report.failed)
        # The failure ends the curve: nothing past the first window ran.
        assert report.results[2:] == [None, None]


class TestFileIdentity:
    def test_results_json_byte_identical(self):
        specs = ExperimentSpec(design="spin_mesh", injection_rate=RATES[0],
                               mesh_side=4, tdd=32, sim=SIM).curve(RATES)
        meta = {"design": specs[0].design, "pattern": "uniform",
                "rates": RATES}
        serial = results_to_json(_points(specs, jobs=1), meta)
        parallel = results_to_json(_points(specs, jobs=4), meta)
        assert serial == parallel  # byte-for-byte

        points, meta_back = results_from_json(serial)
        assert meta_back == meta
        assert len(points) == len(RATES)

    def test_results_json_is_deterministic_serialization(self):
        specs = ExperimentSpec(design="spin_mesh", injection_rate=RATES[0],
                               mesh_side=4, tdd=32, sim=SIM).curve(RATES[:2])
        points = _points(specs, jobs=1)
        text = results_to_json(points, {"rates": RATES[:2]})
        # One canonical line plus a newline: re-encoding the parsed
        # document reproduces the exact bytes.
        assert text == canonical_json(json.loads(text)) + "\n"

    @staticmethod
    def _sweep(campaign, output):
        args = ["sweep", "--design", "spin_mesh", "--rates", "0.02,0.05",
                "--mesh-side", "4", "--tdd", "32", "--warmup", "100",
                "--measure", "500", "--drain", "400", "--abort-cycles",
                "600", "--jobs", "2", "--campaign", str(campaign),
                "--output", str(output)]
        assert main(args) == 0

    def test_campaign_artifacts_are_canonical(self, tmp_path):
        campaign = tmp_path / "camp"
        self._sweep(campaign, tmp_path / "out.json")
        for path in (campaign / MANIFEST_NAME, campaign / STATUS_NAME,
                     tmp_path / "out.json"):
            text = path.read_text()
            assert text == canonical_json(json.loads(text)) + "\n", path
        status = json.loads((campaign / STATUS_NAME).read_text())
        assert status["campaign"]["ok"] == 2

    def test_indented_manifest_resumes_to_identical_results(self, tmp_path,
                                                            capsys):
        gold = tmp_path / "gold.json"
        self._sweep(tmp_path / "gold", gold)
        campaign, output = tmp_path / "camp", tmp_path / "out.json"
        self._sweep(campaign, output)
        output.unlink()
        # The layout written before the canonical form: an indented
        # manifest, and a journal cut after its first record.
        manifest = campaign / MANIFEST_NAME
        manifest.write_text(json.dumps(json.loads(manifest.read_text()),
                                       indent=2, sort_keys=True) + "\n")
        journal = campaign / JOURNAL_NAME
        journal.write_text(journal.read_text().split("\n")[0] + "\n")
        assert main(["sweep", "--resume", str(campaign)]) == 0
        assert "points_resumed=1" in capsys.readouterr().out
        assert output.read_bytes() == gold.read_bytes()
