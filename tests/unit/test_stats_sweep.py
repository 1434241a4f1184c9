"""Unit tests for statistics collection and injection sweeps."""

import json

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.network.packet import Packet
from repro.stats.collectors import LatencySummary, NetworkStats
from repro.stats.results import RESULTS_SCHEMA, results_from_json
from repro.stats.sweep import (
    SaturationCursor,
    SweepPoint,
    curve_saturation_rate,
    simulate_point,
)
from repro.traffic.generator import PacketMix, SyntheticTraffic
from repro.traffic.patterns import make_pattern

from tests.conftest import make_mesh_network


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_percentiles(self):
        # Nearest-rank: ordered[ceil(f * n) - 1]; at n=100 the p50 is the
        # 50th value, not the 51st (the old int() truncation's off-by-one).
        summary = LatencySummary.from_samples(list(range(1, 101)))
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == 50
        assert summary.p95 == 95
        assert summary.p99 == 99
        assert summary.maximum == 100

    def test_percentiles_nearest_rank_small_counts(self):
        # Regression for the int(fraction * count) off-by-one: small
        # samples must follow the nearest-rank rule exactly.
        assert LatencySummary.from_samples([7]).p50 == 7
        assert LatencySummary.from_samples([7]).p99 == 7
        two = LatencySummary.from_samples([1, 9])
        assert two.p50 == 1      # ceil(0.5 * 2) - 1 = index 0
        assert two.p99 == 9      # ceil(0.99 * 2) - 1 = index 1
        four = LatencySummary.from_samples([10, 20, 30, 40])
        assert four.p50 == 20    # ceil(2.0) - 1 = index 1 (old code: 30)
        assert four.p95 == 40
        ten = LatencySummary.from_samples(list(range(1, 11)))
        assert ten.p50 == 5      # old code read index 5 -> 6
        assert ten.p95 == 10
        assert ten.p99 == 10


class TestNetworkStats:
    def _packet(self, length=2):
        packet = Packet(0, 1, 0, 1, length=length, create_cycle=10)
        return packet

    def test_window_marks_measured(self):
        stats = NetworkStats()
        stats.open_window(100, 200)
        inside = self._packet()
        outside = self._packet()
        stats.record_creation(inside, 150)
        stats.record_creation(outside, 250)
        assert inside.measured and not outside.measured
        assert stats.measured_created == 1

    def test_delivery_accounting(self):
        stats = NetworkStats()
        stats.open_window(0, 100)
        packet = self._packet(length=3)
        stats.record_creation(packet, 50)
        packet.inject_cycle = 55
        packet.eject_cycle = 70
        stats.record_delivery(packet, 70)
        assert stats.measured_flits_delivered == 3
        assert stats.latencies == [60]
        assert stats.network_latencies == [15]
        assert stats.delivery_ratio() == 1.0

    def test_throughput(self):
        stats = NetworkStats()
        stats.open_window(0, 100)
        for _ in range(10):
            packet = self._packet(length=5)
            stats.record_creation(packet, 10)
            packet.inject_cycle = 11
            packet.eject_cycle = 30
            stats.record_delivery(packet, 30)
        assert stats.throughput(measure_cycles=100, num_nodes=5) == pytest.approx(0.1)

    def test_event_counter(self):
        stats = NetworkStats()
        stats.count("spins")
        stats.count("spins", 4)
        assert stats.events["spins"] == 5

    def test_point_kwargs_match_point_fields(self):
        stats = NetworkStats()
        stats.open_window(0, 100)
        packet = self._packet(length=5)
        stats.record_creation(packet, 10)
        packet.inject_cycle = 11
        packet.eject_cycle = 30
        stats.record_delivery(packet, 30)
        stats.count("spins", 2)
        kwargs = stats.point_kwargs(measure_cycles=100, num_nodes=4)
        point = SweepPoint(injection_rate=0.1, wedged=False, **kwargs)
        assert point.delivered == 1
        assert point.events == {"spins": 2}
        assert point.mean_latency == pytest.approx(20.0)


def _traffic_factory(network, rate, stop_at):
    return SyntheticTraffic(network, make_pattern("uniform", 16), rate,
                            seed=4, stop_at=stop_at,
                            mix=PacketMix.single(1))


def _simulate(rate, sim_config, vcs=2, **kwargs):
    """Build a 4x4 mesh, then its traffic, then simulate one point."""
    network = make_mesh_network(side=4, vcs=vcs)
    stop_at = sim_config.warmup_cycles + sim_config.measure_cycles
    traffic = _traffic_factory(network, rate, stop_at)
    return network, simulate_point(network, traffic, sim_config,
                                   injection_rate=rate, **kwargs)


def _sweep(rates, sim_config, vcs=2):
    """Ascending rates through a SaturationCursor: stop at the cut."""
    cursor = SaturationCursor()
    points = []
    for rate in rates:
        points.append(_simulate(rate, sim_config, vcs=vcs)[1])
        if cursor.push(points[-1]):
            break
    return points


class TestSimulatePoint:
    def _components(self, rate=0.05, vcs=2):
        network = make_mesh_network(side=4, vcs=vcs)
        sim_config = SimulationConfig(warmup_cycles=100, measure_cycles=400,
                                      drain_cycles=300)
        stop_at = sim_config.warmup_cycles + sim_config.measure_cycles
        traffic = _traffic_factory(network, rate, stop_at)
        return network, traffic, sim_config

    def test_low_load_point(self):
        sim_config = SimulationConfig(warmup_cycles=200, measure_cycles=1000,
                                      drain_cycles=800)
        _, point = _simulate(0.05, sim_config)
        assert point.delivery_ratio == 1.0
        assert not point.wedged
        assert 4 < point.mean_latency < 30
        assert point.throughput == pytest.approx(0.05, rel=0.25)
        assert point.cycles == sim_config.total_cycles

    def test_wedge_detection(self):
        sim_config = SimulationConfig(warmup_cycles=100, measure_cycles=1500,
                                      drain_cycles=1500,
                                      deadlock_abort_cycles=600)
        _, point = _simulate(0.45, sim_config, vcs=1)  # no SPIN: deadlocks
        assert point.wedged
        assert point.cycles < sim_config.total_cycles  # aborted early

    def test_raise_on_wedge(self):
        from repro.errors import SimulationError

        sim_config = SimulationConfig(warmup_cycles=100, measure_cycles=1500,
                                      drain_cycles=1500,
                                      deadlock_abort_cycles=600)
        with pytest.raises(SimulationError, match="wedged"):
            _simulate(0.45, sim_config, vcs=1, raise_on_wedge=True)

    def test_rate_taken_from_traffic_when_unspecified(self):
        network, traffic, sim_config = self._components(rate=0.06)
        point = simulate_point(network, traffic, sim_config)
        assert point.injection_rate == 0.06

    def test_rate_mismatch_raises_before_simulation(self):
        network, traffic, sim_config = self._components(rate=0.06)
        with pytest.raises(ConfigurationError, match="disagrees"):
            simulate_point(network, traffic, sim_config, injection_rate=0.3)

    def test_wedge_poll_interval_is_configurable(self):
        # A coarse poll interval still detects the wedge, just later; a
        # fine interval detects it within one abort window of the stall.
        for interval in (50, 700):
            network = make_mesh_network(side=4, vcs=1)
            sim_config = SimulationConfig(
                warmup_cycles=100, measure_cycles=1500, drain_cycles=1500,
                deadlock_abort_cycles=600, wedge_poll_interval=interval)
            stop_at = sim_config.warmup_cycles + sim_config.measure_cycles
            traffic = _traffic_factory(network, 0.45, stop_at)
            point = simulate_point(network, traffic, sim_config)
            assert point.wedged
            # The run advances in poll-interval chunks past the warmup.
            assert (point.cycles - sim_config.warmup_cycles) % interval == 0

    def test_wedge_poll_interval_validated(self):
        with pytest.raises(ConfigurationError, match="wedge_poll_interval"):
            SimulationConfig(wedge_poll_interval=0)


class TestCursorSweep:
    """A SaturationCursor loop over simulate_point: the serial sweep."""

    SIM = SimulationConfig(warmup_cycles=200, measure_cycles=800,
                           drain_cycles=500)

    def test_sweep_stops_after_saturation(self):
        points = _sweep([0.02, 0.1, 0.2, 0.3, 0.4, 0.6, 0.9], self.SIM)
        assert 2 <= len(points) <= 7
        saturation = curve_saturation_rate(points)
        assert 0.02 <= saturation < 0.9

    def test_saturation_monotone_in_vcs(self):
        rates = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5]
        # More VCs -> at least as much sustainable load (deadlocks aside,
        # low-load points here stay below deadlock formation).
        assert curve_saturation_rate(_sweep(rates, self.SIM, vcs=3)) >= \
            curve_saturation_rate(_sweep(rates, self.SIM, vcs=1))


class TestSaturationHelpers:
    def _curve(self):
        return [
            SweepPoint(0.05, 10.0, 20.0, 0.05, 1.0, False, 100),
            SweepPoint(0.10, 12.0, 25.0, 0.10, 1.0, False, 100),
            SweepPoint(0.20, 90.0, 300.0, 0.11, 0.9, False, 100),  # saturated
            SweepPoint(0.30, 200.0, 500.0, 0.10, 0.5, False, 50),
        ]

    def test_cursor_stops_at_the_first_saturated_point(self):
        cursor = SaturationCursor()
        stops = [cursor.push(p) for p in self._curve()[:3]]
        assert stops == [False, False, True]

    def test_cursor_zero_load_is_the_first_point(self):
        # Against the second point's latency the saturated one would not
        # exceed 4x; the cursor keeps the first as its reference.
        cursor = SaturationCursor(latency_cap=8.0)
        assert [cursor.push(p) for p in self._curve()[:3]] \
            == [False, False, True]
        assert not SaturationCursor(latency_cap=8.0).push(self._curve()[2])

    def test_saturation_rate_is_the_last_sustained_load(self):
        assert curve_saturation_rate(self._curve()) == 0.10
        assert curve_saturation_rate(self._curve(), latency_cap=100.0) \
            == 0.20

    def test_empty_curve(self):
        assert curve_saturation_rate([]) == 0.0


class TestSweepPoint:
    def test_saturated_flags(self):
        good = SweepPoint(0.1, 20.0, 40.0, 0.1, 1.0, False, 100)
        assert not good.saturated(zero_load_latency=15.0)
        slow = SweepPoint(0.5, 200.0, 400.0, 0.2, 1.0, False, 100)
        assert slow.saturated(zero_load_latency=15.0)
        lossy = SweepPoint(0.5, 20.0, 40.0, 0.2, 0.5, False, 100)
        assert lossy.saturated(zero_load_latency=15.0)
        wedged = SweepPoint(0.5, 20.0, 40.0, 0.2, 1.0, True, 100)
        assert wedged.saturated(zero_load_latency=15.0)

    def test_dict_round_trip(self):
        point = SweepPoint(0.15, 23.5, 80.0, 0.14, 0.99, False, 421,
                           events={"spins": 3, "probes_sent": 17},
                           link_utilization=(0.2, 0.01, 0.79),
                           packets_lost=2, cycles=4400)
        assert SweepPoint.from_dict(point.to_dict()) == point

    def test_from_dict_rejects_unknown_fields(self):
        point = SweepPoint(0.1, 10.0, 20.0, 0.1, 1.0, False, 10)
        data = point.to_dict()
        data["latency_p75"] = 12.0
        with pytest.raises(ConfigurationError, match="unknown SweepPoint"):
            SweepPoint.from_dict(data)


class TestResultsFile:
    @pytest.mark.parametrize("raw", [5, None, [1, 2]],
                             ids=["number", "null", "list"])
    def test_non_object_point_rejected_with_index(self, raw):
        good = SweepPoint(0.1, 10.0, 20.0, 0.1, 1.0, False, 10).to_dict()
        text = json.dumps({"schema": RESULTS_SCHEMA, "meta": {},
                           "points": [good, raw]})
        with pytest.raises(ConfigurationError,
                           match=r"point must be an object.*index=1"):
            results_from_json(text)
