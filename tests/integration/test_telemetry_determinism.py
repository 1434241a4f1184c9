"""Telemetry determinism: byte-identity off, reproducible counts on.

The PR-wide contract: with telemetry *disabled* a fixed-seed run is
byte-identical to one that never imported telemetry (no observer is
registered, so the hot loop's schedule is unchanged); with telemetry
*enabled* the recorded counts are a pure function of the spec, so serial
and ``--jobs N`` sweeps — and repeated runs — agree exactly, and the
measurements differ from a disabled run only by the ``telemetry_*`` event
counters.
"""

from dataclasses import replace

import pytest

from repro.config import SimulationConfig
from repro.harness.campaign import CampaignConfig, CampaignEngine
from repro.harness.runner import ExperimentSpec


def _spec(telemetry=False, rate=0.08):
    return ExperimentSpec(
        design="mesh:minadaptive-spin-1vc", pattern="uniform",
        injection_rate=rate, seed=3, mesh_side=4, tdd=16,
        sim=SimulationConfig(warmup_cycles=100, measure_cycles=400,
                             drain_cycles=300),
        telemetry=telemetry)


def _strip_telemetry(point):
    events = {name: value for name, value in point.events.items()
              if not name.startswith("telemetry_")}
    return replace(point, events=events)


class TestTelemetryDeterminism:
    def test_enabled_equals_disabled_modulo_telemetry_events(self):
        _, off = _spec(telemetry=False).run()
        _, on = _spec(telemetry=True).run()
        assert any(name.startswith("telemetry_") for name in on.events)
        assert not any(name.startswith("telemetry_")
                       for name in off.events)
        assert _strip_telemetry(on) == off

    def test_enabled_runs_are_reproducible(self):
        _, first = _spec(telemetry=True).run()
        _, second = _spec(telemetry=True).run()
        assert first == second

    def test_jobs_parallel_matches_serial_with_telemetry(self):
        specs = [_spec(telemetry=True, rate=rate)
                 for rate in (0.05, 0.10)]
        serial = CampaignEngine(specs).run().results
        parallel = CampaignEngine(
            specs, config=CampaignConfig(jobs=2)).run().results
        assert all(result.ok for result in serial + parallel)
        assert [r.point for r in serial] == [r.point for r in parallel]
        assert all("telemetry_samples" in r.point.events for r in serial)

    def test_spec_serialization_carries_telemetry(self):
        spec = _spec(telemetry=True)
        data = spec.to_dict()
        assert data["telemetry"] is True
        assert ExperimentSpec.from_dict(data) == spec

    def test_env_gate_and_flag_are_equivalent(self, monkeypatch):
        _, flagged = _spec(telemetry=True).run()
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        _, gated = _spec(telemetry=False).run()
        assert flagged == gated


def _scenario_records_digest(name, interval):
    """sha256 of the canonical JSONL of one golden scenario's telemetry
    records (no packet traces: their uids are process-local)."""
    import hashlib
    import json

    from repro.sim.engine import Simulator
    from repro.telemetry import (
        TelemetryConfig,
        TelemetryObserver,
        build_records,
    )
    from repro.verify.golden import SCENARIOS

    scenario = SCENARIOS[name]
    network, traffic = scenario.builder()
    simulator = Simulator()
    if traffic is not None:
        simulator.register(traffic)
    simulator.register(network)
    observer = TelemetryObserver(
        network, TelemetryConfig(sample_interval=interval)).attach(simulator)
    simulator.run(scenario.cycles)
    observer.finalize(simulator.cycle)
    digest = hashlib.sha256()
    for record in build_records(observer, {"scenario": name}):
        digest.update(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestPinnedRecords:
    def test_square_deadlock_records_are_pinned(self):
        # Samples, spans and the summary's histograms and counters of one
        # planted recovery; a refactor of the observer must not move them.
        assert _scenario_records_digest("mesh4_square_deadlock", 4) == (
            "2f8d48a406ebac37db04c0e95d696f6b7fc02c225c8da7303a3766b4db3c6ca1")
