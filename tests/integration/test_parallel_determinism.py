"""Parallel-vs-serial determinism: ``--jobs N`` must reproduce ``--jobs 1``.

This is the load-bearing guarantee of the spec-based sweep engine: every
point is built from a self-contained picklable :class:`ExperimentSpec`, so
where the point executes (parent process or worker N) cannot change the
measurement.  The tests check both the in-memory :class:`SweepPoint`
equality and the byte-level results-file identity.
"""

import json

import pytest

import repro.harness.campaign as campaign_module
from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.harness.campaign import CampaignConfig, CampaignEngine
from repro.harness.runner import ExperimentSpec, latency_curve, spec_grid
from repro.stats.results import results_from_json, results_to_json

SIM = SimulationConfig(warmup_cycles=100, measure_cycles=500,
                       drain_cycles=400, deadlock_abort_cycles=600)
RATES = [0.02, 0.05, 0.08, 0.11]


def _points(specs, jobs):
    report = CampaignEngine(specs, config=CampaignConfig(jobs=jobs)).run()
    results = report.results
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    return [r.point for r in results]


class TestPointIdentity:
    def test_jobs4_equals_jobs1_per_seed(self):
        """Identical SweepPoints per seed across --jobs 1 and --jobs 4."""
        specs = spec_grid(["spin_mesh"], ["uniform"], RATES, seeds=(1, 2),
                          mesh_side=4, tdd=32, sim=SIM)
        assert _points(specs, jobs=1) == _points(specs, jobs=4)

    def test_faulty_points_identical_across_backends(self):
        base = ExperimentSpec(design="spin_mesh", pattern="transpose",
                              injection_rate=RATES[0], mesh_side=4, tdd=32,
                              faults="sm_drop:p=0.05", fault_seed=11, sim=SIM)
        specs = base.curve(RATES[:3])
        assert _points(specs, jobs=1) == _points(specs, jobs=3)

    def test_latency_curve_jobs_parameter(self):
        serial_points, serial_sat = latency_curve(
            "spin_mesh", "uniform", RATES, SIM, mesh_side=4, tdd=32, jobs=1)
        par_points, par_sat = latency_curve(
            "spin_mesh", "uniform", RATES, SIM, mesh_side=4, tdd=32, jobs=4)
        assert serial_points == par_points
        assert serial_sat == par_sat


class TestLatencyCurveWaves:
    #: Saturates at 0.9 (index 2), the first rate of the second wave of 2.
    CUT_RATES = [0.02, 0.04, 0.9, 0.95, 0.99]

    def test_cut_matches_serial_and_overruns_by_at_most_jobs_minus_1(
            self, monkeypatch):
        ran = []
        real = campaign_module.CampaignEngine

        def recording(specs, *args, **kwargs):
            ran.extend(spec.injection_rate for spec in specs)
            return real(specs, *args, **kwargs)

        serial = latency_curve("spin_mesh", "uniform", self.CUT_RATES, SIM,
                               mesh_side=4, tdd=32, jobs=1)
        monkeypatch.setattr(campaign_module, "CampaignEngine", recording)
        waved = latency_curve("spin_mesh", "uniform", self.CUT_RATES, SIM,
                              mesh_side=4, tdd=32, jobs=2)
        assert waved == serial
        points, _ = waved
        assert len(points) == 3 < len(self.CUT_RATES)
        assert ran == self.CUT_RATES[:4]
        assert len(ran) - len(points) <= 2 - 1

    @staticmethod
    def _record_waves(monkeypatch):
        waves = []
        real = campaign_module.CampaignEngine

        def recording(specs, *args, **kwargs):
            waves.append([spec.injection_rate for spec in specs])
            return real(specs, *args, **kwargs)

        monkeypatch.setattr(campaign_module, "CampaignEngine", recording)
        return waves

    @pytest.mark.parametrize("jobs", [3, 4, 5])
    def test_overrun_is_the_rest_of_the_cut_wave(self, monkeypatch, jobs):
        serial_points, serial_sat = latency_curve(
            "spin_mesh", "uniform", self.CUT_RATES[:3], SIM, mesh_side=4,
            tdd=32, jobs=1)
        waves = self._record_waves(monkeypatch)
        points, saturation = latency_curve(
            "spin_mesh", "uniform", self.CUT_RATES, SIM, mesh_side=4,
            tdd=32, jobs=jobs)
        assert (points, saturation) == (serial_points, serial_sat)
        # The cut lands in the first wave; the whole wave still ran.
        assert waves == [self.CUT_RATES[:jobs]]
        assert len(waves[0]) - len(points) <= jobs - 1

    def test_unsaturated_curve_runs_every_wave(self, monkeypatch):
        rates = [0.02, 0.04, 0.06]
        serial = latency_curve("spin_mesh", "uniform", rates, SIM,
                               mesh_side=4, tdd=32, jobs=1)
        waves = self._record_waves(monkeypatch)
        waved = latency_curve("spin_mesh", "uniform", rates, SIM,
                              mesh_side=4, tdd=32, jobs=2)
        assert waved == serial
        assert len(waved[0]) == len(rates)
        assert waves == [[0.02, 0.04], [0.06]]

    def test_serial_curve_starts_no_campaign(self, monkeypatch):
        def no_campaign(*args, **kwargs):
            raise AssertionError("jobs=1 must run in-process")

        monkeypatch.setattr(campaign_module, "CampaignEngine", no_campaign)
        points, _ = latency_curve("spin_mesh", "uniform", RATES[:2], SIM,
                                  mesh_side=4, tdd=32, jobs=1)
        assert [p.injection_rate for p in points] == RATES[:2]

    def test_jobs_accept_the_same_latency_cap_as_serial(self):
        # A campaign rejects latency_cap <= 1.0; a curve must not, at any jobs.
        serial = latency_curve("spin_mesh", "uniform", RATES[:2], SIM,
                               mesh_side=4, tdd=32, latency_cap=1.0, jobs=1)
        waved = latency_curve("spin_mesh", "uniform", RATES[:2], SIM,
                              mesh_side=4, tdd=32, latency_cap=1.0, jobs=2)
        assert waved == serial

    def test_failed_point_raises_simulation_error(self):
        with pytest.raises(SimulationError, match="sweep point failed"):
            latency_curve("spin_mesh", "nonexistent", RATES[:2], SIM,
                          mesh_side=4, tdd=32, jobs=2)


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
        # Stable key order and trailing newline: re-dumping the parsed
        # document reproduces the exact bytes.
        redumped = json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"
        assert text == redumped
