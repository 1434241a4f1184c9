"""SPIN span reconstruction against the planted-deadlock golden trace.

The ``mesh4_square_deadlock`` scenario (repro.verify.golden) plants the
paper's Fig. 2 square deadlock on a 4x4 mesh with SPIN at tdd=8 and no
traffic source, so exactly one synchronized spin resolves it.  These tests
assert that the telemetry span tracer reconstructs that recovery as
exactly one *complete* detection→spin episode — and that the span's cycle
bounds agree with the independently recorded golden trace fixture in
tests/fixtures/golden/ (the cycle whose ``spins`` event delta fires must
be the span's spin cycle).
"""

import os

import pytest

from repro.sim.engine import Simulator
from repro.telemetry import TelemetryConfig, TelemetryObserver
from repro.verify.golden import SCENARIOS
from repro.verify.trace import load_fixture

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                       "golden", "mesh4_square_deadlock.json")


@pytest.fixture(scope="module")
def recorded():
    """Run the scenario once under telemetry; share across the module."""
    scenario = SCENARIOS["mesh4_square_deadlock"]
    network, traffic = scenario.builder()
    simulator = Simulator()
    if traffic is not None:
        simulator.register(traffic)
    simulator.register(network)
    observer = TelemetryObserver(
        network, TelemetryConfig(sample_interval=16)).attach(simulator)
    simulator.run(scenario.cycles)
    observer.finalize(simulator.cycle)
    return network, observer


def _golden_event_cycles(event_name):
    """Cycles at which the golden trace recorded a delta of ``event``."""
    payload = load_fixture(FIXTURE)
    cycles = []
    for record in payload["records"]:
        for name, delta in record[8:]:
            if name == event_name and delta > 0:
                cycles.append(record[0])
    return cycles


class TestDeadlockSpanReconstruction:
    def test_exactly_one_complete_detection_to_spin_span(self, recorded):
        network, observer = recorded
        recovered = [span for span in observer.spans
                     if span.kind == "spin_episode"
                     and span.outcome == "recovered"]
        assert len(recovered) == 1
        span = recovered[0]
        assert span.complete
        assert len(span.spin_cycles) == 1
        # Detection latency is the full countdown plus the probe round
        # trip: tdd=8 around the 4-router square (loop delay 4) -> 12.
        assert span.tdd == 8
        assert span.loop_delay == 4
        assert span.detection_latency == 12
        assert span.recovery_latency is not None
        assert span.recovery_latency > 0
        assert span.start_cycle == span.move_cycle - span.loop_delay
        assert span.start_cycle < span.spin_cycles[0] <= span.end_cycle

    def test_span_cycle_bounds_match_golden_trace(self, recorded):
        """The tracer's spin cycle is the fixture's ``spins`` delta cycle."""
        _, observer = recorded
        recovered = [span for span in observer.spans
                     if span.outcome == "recovered"]
        golden_spins = _golden_event_cycles("spins")
        assert len(golden_spins) == 1
        assert recovered[0].spin_cycles == golden_spins

    def test_span_counters_merge_into_stats_events(self, recorded):
        network, observer = recorded
        events = network.stats.events
        assert events["telemetry_spans_recovered"] == 1
        assert events["telemetry_spans"] == sum(
            1 for span in observer.spans if span.kind == "spin_episode")
        assert events["telemetry_span_spins"] == 1
        assert events["spins"] == 1

    def test_deadlock_actually_resolves(self, recorded):
        network, _ = recorded
        assert network.stats.packets_delivered == 4
        assert network.packets_in_flight() == 0

    def test_detection_histogram_populated(self, recorded):
        _, observer = recorded
        histogram = observer.histograms["detection_latency"]
        assert histogram.observations >= 1
        assert histogram.minimum == 12
