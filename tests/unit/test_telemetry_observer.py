"""Unit tests for the telemetry observer and its environment gate."""

import pytest

from repro.config import SimulationConfig, SpinParams
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.stats.sweep import simulate_point
from repro.telemetry.observer import (
    TelemetryConfig,
    TelemetryObserver,
    config_from_env_value,
    telemetry_from_env,
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


class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.sample_interval == 64
        assert config.metrics and config.spans
        assert not config.packet_traces

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetryConfig(sample_interval=0)
        with pytest.raises(ConfigurationError):
            TelemetryConfig(max_samples=0)


class TestEnvGate:
    @pytest.mark.parametrize("value", ["1", "on", "true", "metrics",
                                       "spans", "ON", " true "])
    def test_enabling_values(self, value):
        config = config_from_env_value(value)
        assert config is not None
        assert not config.packet_traces

    def test_full_enables_packet_traces(self):
        config = config_from_env_value("full")
        assert config is not None and config.packet_traces

    def test_integer_sets_interval(self):
        config = config_from_env_value("128")
        assert config is not None
        assert config.sample_interval == 128

    @pytest.mark.parametrize("value", ["", "off", "0", "false", " NO "])
    def test_disabling_values(self, value):
        assert config_from_env_value(value) is None

    @pytest.mark.parametrize("value", ["-3", "nope", "onn"])
    def test_unrecognized_values_are_rejected(self, value):
        with pytest.raises(ConfigurationError, match="not recognized"):
            config_from_env_value(value)

    def test_telemetry_from_env(self, monkeypatch):
        network = make_mesh_network()
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry_from_env(network) is None
        monkeypatch.setenv("REPRO_TELEMETRY", "32")
        observer = telemetry_from_env(network)
        assert observer is not None
        assert observer.config.sample_interval == 32

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
