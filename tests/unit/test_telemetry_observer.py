"""Unit tests for the telemetry observer and its environment gate."""

import pytest

from repro.config import SimulationConfig, SpinParams
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.stats.sweep import simulate_point
from repro.telemetry.observer import (
    Histogram,
    TelemetryConfig,
    TelemetryObserver,
    telemetry_config,
)
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern

from tests.conftest import craft_square_deadlock, make_mesh_network


def _run_with_observer(network, cycles, config=None, traffic=None):
    simulator = Simulator()
    if traffic is not None:
        simulator.register(traffic)
    simulator.register(network)
    observer = TelemetryObserver(network, config).attach(simulator)
    simulator.run(cycles)
    observer.finalize(simulator.cycle)
    return observer


def _uniform_traffic(network, rate=0.1, stop_at=200, seed=1):
    pattern = make_pattern("uniform", network.topology.num_nodes, 4)
    return SyntheticTraffic(network, pattern, rate, seed=seed,
                            stop_at=stop_at)


class TestHistogram:
    def test_binning_and_overflow(self):
        histogram = Histogram(edges=(10, 20))
        for value in (5, 10, 11, 25, 100):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 2]  # <=10, <=20, overflow
        assert histogram.observations == 5
        assert histogram.minimum == 5
        assert histogram.maximum == 100
        assert histogram.mean() == pytest.approx((5 + 10 + 11 + 25 + 100) / 5)

    def test_to_dict_roundtrip_fields(self):
        histogram = Histogram(edges=(1, 2))
        histogram.observe(1)
        data = histogram.to_dict()
        assert data["edges"] == [1, 2]
        assert data["counts"] == [1, 0, 0]
        assert data["observations"] == 1

    def test_empty_mean(self):
        assert Histogram(edges=(1,)).mean() == 0.0

    def test_needs_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram(edges=())


class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.sample_interval == 64
        assert not config.packet_traces

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetryConfig(sample_interval=0)
        with pytest.raises(ConfigurationError):
            TelemetryConfig(max_samples=0)


class TestEnvGate:
    """``REPRO_TELEMETRY`` words are tabled in tests/unit/test_env_gates.py;
    here, what each selected value configures and that the gate is wired."""

    def test_modes_select_configs(self):
        assert telemetry_config("metrics") == TelemetryConfig()
        assert telemetry_config("full").packet_traces
        assert telemetry_config(128).sample_interval == 128

    def test_env_gate_through_simulate_point(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "16")
        network = make_mesh_network()
        traffic = _uniform_traffic(network, stop_at=150)
        point = simulate_point(
            network, traffic,
            SimulationConfig(warmup_cycles=50, measure_cycles=100,
                             drain_cycles=100))
        assert point.events.get("telemetry_samples", 0) > 0


class TestObserver:
    def test_double_attach_rejected(self):
        network = make_mesh_network()
        simulator = Simulator()
        simulator.register(network)
        observer = TelemetryObserver(network).attach(simulator)
        with pytest.raises(ConfigurationError):
            observer.attach(simulator)

    def test_samples_at_interval(self):
        network = make_mesh_network()
        traffic = _uniform_traffic(network, stop_at=100)
        observer = _run_with_observer(
            network, 100, TelemetryConfig(sample_interval=25),
            traffic=traffic)
        cycles = [sample["cycle"] for sample in observer.samples]
        assert cycles == [0, 25, 50, 75, 100]  # finalize adds the last

    def test_finalize_idempotent(self):
        network = make_mesh_network()
        observer = _run_with_observer(network, 10)
        count = len(observer.samples)
        observer.finalize(10)
        assert len(observer.samples) == count

    def test_sample_shape(self):
        network = make_mesh_network()
        traffic = _uniform_traffic(network, stop_at=64)
        observer = _run_with_observer(
            network, 64, TelemetryConfig(sample_interval=32),
            traffic=traffic)
        sample = observer.samples[-1]
        assert sample["type"] == "sample"
        assert len(sample["occupancy"]) == len(network.routers)
        assert len(sample["stalled"]) == len(network.routers)
        for key in ("created", "injected", "delivered", "in_flight",
                    "backlog", "frozen", "links", "events"):
            assert key in sample
        assert network.stats.events["telemetry_samples"] == \
            len(observer.samples)

    def test_event_deltas_skip_own_counters(self):
        network = make_mesh_network()
        traffic = _uniform_traffic(network, stop_at=128)
        observer = _run_with_observer(
            network, 128, TelemetryConfig(sample_interval=16),
            traffic=traffic)
        for sample in observer.samples:
            assert not any(name.startswith("telemetry_")
                           for name in sample["events"])

    def test_packet_traces_record_hops_and_deliveries(self):
        network = make_mesh_network()
        traffic = _uniform_traffic(network, stop_at=100)
        observer = _run_with_observer(
            network, 200, TelemetryConfig(packet_traces=True),
            traffic=traffic)
        kinds = {record[1] for record in observer.hops}
        assert kinds == {"hop", "deliver"}
        delivered = sum(1 for record in observer.hops
                        if record[1] == "deliver")
        assert delivered == network.stats.packets_delivered

    def test_spans_need_spin(self):
        network = make_mesh_network()  # no SPIN framework
        observer = TelemetryObserver(network)
        assert observer._tracer is None
        spin_network = make_mesh_network(spin=SpinParams(tdd=16))
        assert TelemetryObserver(spin_network)._tracer is not None

    def test_max_samples_caps_records_not_counters(self):
        network = make_mesh_network()
        config = TelemetryConfig(sample_interval=1, max_samples=5)
        observer = _run_with_observer(network, 20, config)
        assert len(observer.samples) == 5
        assert network.stats.events["telemetry_samples"] == 21

    def test_frozen_vcs_counted(self):
        network = make_mesh_network(spin=SpinParams(tdd=8))
        craft_square_deadlock(network)
        observer = _run_with_observer(
            network, 300, TelemetryConfig(sample_interval=8))
        assert any(sample["frozen"] > 0 for sample in observer.samples)
        assert network.stats.packets_delivered == 4
