"""Unit tests for the exception hierarchy and network-level utilization."""

import pytest

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from repro.sim.engine import Simulator

from tests.conftest import make_mesh_network


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, TopologyError, RoutingError, ProtocolError,
        SimulationError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_catching_base_catches_library_failures(self):
        from repro.config import NetworkConfig

        with pytest.raises(ReproError):
            NetworkConfig(vcs_per_vnet=0)


class TestNetworkUtilization:
    def test_idle_network_reads_fully_idle(self):
        network = make_mesh_network(side=4)
        network.reset_link_utilization()
        network.now = 100
        flit, sm, idle = network.mean_link_utilization()
        assert flit == 0.0 and sm == 0.0 and idle == 1.0

    def test_traffic_shows_up_in_flit_share(self):
        network = make_mesh_network(side=4)
        network.stats.open_window(0, None)
        network.reset_link_utilization()
        for src, inport, dst in [(0, 2, 3), (12, 1, 15), (5, 0, 10)]:
            network.plant_packet(src, inport, dst)
        sim = Simulator()
        sim.register(network)
        sim.run(50)
        flit, sm, idle = network.mean_link_utilization()
        assert flit > 0.0
        assert sm == 0.0
        assert idle < 1.0

    def test_reset_clears_history(self):
        network = make_mesh_network(side=4)
        network.stats.open_window(0, None)
        network.plant_packet(0, 2, 15)
        sim = Simulator()
        sim.register(network)
        sim.run(50)
        network.reset_link_utilization()
        sim.run(10)
        flit, _, _ = network.mean_link_utilization()
        assert flit == 0.0  # all movement happened before the reset
