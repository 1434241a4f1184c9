"""Unit tests for mesh routing algorithms: XY, turn models, minimal adaptive."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.network.packet import Packet
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.routing.dor import DimensionOrderRouting
from repro.routing.turn_model import NorthLastRouting, WestFirstRouting
from repro.topology.mesh import EAST, NORTH, SOUTH, WEST

from tests.conftest import make_mesh_network


def packet_to(network, dst_router, src_router=0):
    return Packet(src_node=src_router, dst_node=dst_router,
                  src_router=src_router, dst_router=dst_router, length=1)


def walk(network, routing, src, dst, chooser=min, limit=100):
    """Follow a routing function hop by hop; returns the router path."""
    packet = packet_to(network, dst, src)
    here = src
    path = [here]
    for _ in range(limit):
        if here == dst:
            return path
        router = network.routers[here]
        ports = routing.candidate_outports(router, packet)
        assert ports, f"no candidates at {here} toward {dst}"
        port = chooser(ports)
        routing.on_hop(packet, router, port)
        here = router.out_neighbors[port][0].id
        path.append(here)
    raise AssertionError("walk did not terminate")


class TestDimensionOrder:
    def test_resolves_x_before_y(self):
        network = make_mesh_network(side=4, routing=DimensionOrderRouting(0))
        mesh = network.topology
        routing = network.routing
        packet = packet_to(network, mesh.router_at(2, 2))
        ports = routing.candidate_outports(
            network.routers[mesh.router_at(0, 0)], packet)
        assert list(ports) == [EAST]
        # Once x is resolved, y movement is allowed.
        ports = routing.candidate_outports(
            network.routers[mesh.router_at(2, 0)], packet)
        assert list(ports) == [SOUTH]

    def test_single_candidate_always(self):
        network = make_mesh_network(side=4, routing=DimensionOrderRouting(0))
        routing = network.routing
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                packet = packet_to(network, dst, src)
                assert len(routing.candidate_outports(
                    network.routers[src], packet)) == 1

    def test_walk_is_minimal(self):
        network = make_mesh_network(side=5, routing=DimensionOrderRouting(0))
        for src, dst in [(0, 24), (7, 3), (20, 4)]:
            path = walk(network, network.routing, src, dst)
            assert len(path) - 1 == network.topology.min_hops(src, dst)

    def test_needs_mesh_like_topology(self):
        from repro.config import NetworkConfig
        from repro.network.network import Network
        from repro.topology.ring import RingTopology

        with pytest.raises(ConfigurationError):
            Network(RingTopology(5), NetworkConfig(),
                    DimensionOrderRouting(0))


class TestWestFirst:
    def test_west_taken_first_and_exclusively(self):
        network = make_mesh_network(side=4, routing=WestFirstRouting(0))
        mesh = network.topology
        packet = packet_to(network, mesh.router_at(0, 3))
        ports = network.routing.candidate_outports(
            network.routers[mesh.router_at(2, 0)], packet)
        assert list(ports) == [WEST]

    def test_adaptive_when_no_west_component(self):
        network = make_mesh_network(side=4, routing=WestFirstRouting(0))
        mesh = network.topology
        packet = packet_to(network, mesh.router_at(3, 3))
        ports = network.routing.candidate_outports(
            network.routers[mesh.router_at(1, 1)], packet)
        assert set(ports) == {EAST, SOUTH}

    def test_no_turn_into_west_ever_needed(self):
        # Walking any permutation with any adaptive choice never needs WEST
        # after a non-west hop: candidates contain WEST only as first leg.
        network = make_mesh_network(side=4, routing=WestFirstRouting(0))
        routing = network.routing
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                path = walk(network, routing, src, dst, chooser=max)
                gone_non_west = False
                for a, b in zip(path, path[1:]):
                    went_west = (network.topology.coordinates(b)[0]
                                 < network.topology.coordinates(a)[0])
                    if went_west:
                        assert not gone_non_west, (src, dst, path)
                    else:
                        gone_non_west = True

    def test_walk_is_minimal(self):
        network = make_mesh_network(side=4, routing=WestFirstRouting(0))
        for src, dst in [(0, 15), (15, 0), (3, 12), (13, 6)]:
            path = walk(network, network.routing, src, dst)
            assert len(path) - 1 == network.topology.min_hops(src, dst)


class TestNorthLast:
    def test_north_only_when_sole_productive(self):
        network = make_mesh_network(side=4, routing=NorthLastRouting(0))
        mesh = network.topology
        # Destination to the north-east: north must be withheld.
        packet = packet_to(network, mesh.router_at(3, 0))
        ports = network.routing.candidate_outports(
            network.routers[mesh.router_at(1, 2)], packet)
        assert NORTH not in ports
        # Destination straight north: north is the only choice.
        packet = packet_to(network, mesh.router_at(1, 0))
        ports = network.routing.candidate_outports(
            network.routers[mesh.router_at(1, 2)], packet)
        assert list(ports) == [NORTH]


class TestMinimalAdaptive:
    def test_candidates_are_all_productive_ports(self):
        network = make_mesh_network(side=4)
        mesh = network.topology
        routing = network.routing
        packet = packet_to(network, mesh.router_at(2, 2))
        ports = routing.candidate_outports(
            network.routers[mesh.router_at(0, 0)], packet)
        assert set(ports) == {EAST, SOUTH}

    def test_candidates_raise_at_destination(self):
        network = make_mesh_network(side=4)
        packet = packet_to(network, 5)
        # decide() handles the destination; candidate computation there
        # legitimately yields nothing productive.
        assert network.routing.productive_ports(network.routers[5], 5) == ()

    def test_decide_requests_ejection_at_destination(self):
        network = make_mesh_network(side=4)
        packet = packet_to(network, 5)
        port = network.routing.decide(network.routers[5], 0, packet, now=0)
        from repro.network.router import is_ejection_port

        assert is_ejection_port(port)
        assert packet.current_request == port

    def test_select_prefers_idle_vc_port(self):
        network = make_mesh_network(side=4)
        mesh = network.topology
        routing = network.routing
        packet = packet_to(network, mesh.router_at(2, 2))
        router = network.routers[mesh.router_at(0, 0)]
        # Occupy the east neighbour's west-side VC so only SOUTH has room.
        east_neighbor, east_inport = router.out_neighbors[EAST]
        network.plant_packet(east_neighbor.id, east_inport, 9)
        chosen = routing.decide(router, 0, packet, now=5)
        assert chosen == SOUTH

    def test_wait_choice_uses_least_active_vc(self):
        network = make_mesh_network(side=4)
        mesh = network.topology
        routing = network.routing
        packet = packet_to(network, mesh.router_at(2, 2))
        router = network.routers[mesh.router_at(0, 0)]
        east_neighbor, east_inport = router.out_neighbors[EAST]
        south_neighbor, south_inport = router.out_neighbors[SOUTH]
        # East VC active since cycle 0, south VC active since cycle 90:
        # the south VC is "younger", so FAvORS waits on SOUTH.
        network.plant_packet(east_neighbor.id, east_inport, 9)
        network.plant_packet(south_neighbor.id, south_inport, 9, now=90)
        chosen = routing.decide(router, 0, packet, now=100)
        assert chosen == SOUTH
