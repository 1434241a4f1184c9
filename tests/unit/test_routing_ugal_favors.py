"""Unit tests for dragonfly UGAL and the FAvORS algorithms."""

import pytest

from repro.config import NetworkConfig
from repro.errors import ConfigurationError
from repro.network.network import Network
from repro.network.packet import Packet
from repro.routing.favors import FavorsMinimal, FavorsNonMinimal
from repro.routing.ugal import MinimalDragonflyRouting, UgalRouting
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.mesh import MeshTopology


def dragonfly_network(routing, vcs=3):
    return Network(DragonflyTopology(2, 4, 2),
                   NetworkConfig(vcs_per_vnet=vcs), routing, seed=1)


def packet_between(network, src_node, dst_node, length=1):
    topo = network.topology
    packet = Packet(src_node=src_node, dst_node=dst_node,
                    src_router=topo.router_of_node(src_node),
                    dst_router=topo.router_of_node(dst_node), length=length)
    return packet


class TestUgalConfiguration:
    def test_discipline_needs_three_vcs(self):
        with pytest.raises(ConfigurationError):
            dragonfly_network(UgalRouting(0, vc_discipline=True), vcs=2)

    def test_spin_variant_accepts_one_vc(self):
        network = dragonfly_network(UgalRouting(0, vc_discipline=False), vcs=1)
        assert network.routing.name == "UGAL-SPIN"

    def test_needs_dragonfly(self):
        with pytest.raises(ConfigurationError):
            Network(MeshTopology(4, 4), NetworkConfig(vcs_per_vnet=3),
                    UgalRouting(0))


class TestUgalVcDiscipline:
    def test_vc_class_increments_on_global_hops(self):
        network = dragonfly_network(UgalRouting(0, vc_discipline=True))
        routing = network.routing
        topo = network.topology
        packet = packet_between(network, 0, topo.num_nodes - 1)
        packet.vc_class = 0
        packet.route_state["globals"] = 0
        router = network.routers[0]
        global_port = topo.a - 1  # first global channel
        routing.on_hop(packet, router, global_port)
        assert packet.vc_class == 1
        routing.on_hop(packet, router, 0)  # local hop: unchanged
        assert packet.vc_class == 1
        routing.on_hop(packet, router, global_port)
        assert packet.vc_class == 2

    def test_vc_choices_follow_class(self):
        network = dragonfly_network(UgalRouting(0, vc_discipline=True))
        routing = network.routing
        packet = packet_between(network, 0, 40)
        packet.vc_class = 1
        assert list(routing.vc_choices(packet, network.routers[0], 0)) == [1]
        assert list(routing.injection_vc_choices(packet)) == [0]

    def test_permitted_rows_follow_class(self):
        """The VC-object rows the datapath reads are ``vc_choices`` applied
        to the next hop's VCs."""
        network = dragonfly_network(UgalRouting(0, vc_discipline=True))
        routing = network.routing
        router = network.routers[0]
        packet = packet_between(network, 0, 40)
        for port in router.out_neighbors:
            downstream = router.downstream_vcs(port, 0)
            for vc_class in (0, 1, 2, 5):  # 5 clamps to the last class
                packet.vc_class = vc_class
                row = routing.permitted_vcs(packet, router, port)
                assert list(row) == [downstream[min(vc_class, 2)]]

    def test_spin_variant_uses_any_vc(self):
        network = dragonfly_network(UgalRouting(0, vc_discipline=False))
        routing = network.routing
        packet = packet_between(network, 0, 40)
        packet.vc_class = 2
        assert list(routing.vc_choices(packet, network.routers[0], 0)) == [0, 1, 2]
        # Unrestricted: the router's own downstream row, not a copy.
        assert (routing.permitted_vcs(packet, network.routers[0], 0)
                is network.routers[0].downstream_vcs(0, 0))


class TestUgalSourceDecision:
    def test_uncongested_stays_minimal(self):
        network = dragonfly_network(UgalRouting(0, vc_discipline=True))
        packet = packet_between(network, 0, 40)
        network.routing.on_inject(packet, now=0)
        assert packet.intermediate_router is None
        assert packet.phase == 1

    def test_intra_group_always_minimal(self):
        network = dragonfly_network(UgalRouting(0, vc_discipline=True))
        packet = packet_between(network, 0, 3)  # nodes 0,3 -> routers 0,1
        network.routing.on_inject(packet, now=0)
        assert packet.intermediate_router is None

    def test_congested_minimal_path_diverts(self):
        network = dragonfly_network(UgalRouting(0, vc_discipline=True))
        routing = network.routing
        topo = network.topology
        packet = packet_between(network, 0, topo.num_nodes - 1)
        source = network.routers[0]
        # Saturate the minimal first hops' class-0 VCs long enough that the
        # congestion proxy (VC active time) favours the Valiant detour.
        min_ports = routing.productive_ports(source, packet.dst_router)
        for port in min_ports:
            neighbor, inport = source.out_neighbors[port]
            network.plant_packet(neighbor.id, inport, source.id)
        routing.on_inject(packet, now=500)
        assert packet.intermediate_router is not None
        assert packet.phase == 0

    def test_misroute_bound_is_one(self):
        assert UgalRouting(0).max_misroutes == 1
        assert FavorsNonMinimal(0).max_misroutes == 1


class TestFavors:
    def test_minimal_variant_is_minimal(self):
        assert FavorsMinimal(0).minimal
        assert FavorsMinimal(0).max_misroutes == 0

    def test_nonminimal_uncongested_stays_minimal(self):
        network = dragonfly_network(FavorsNonMinimal(0), vcs=1)
        packet = packet_between(network, 0, 40)
        network.routing.on_inject(packet, now=0)
        assert packet.intermediate_router is None

    def test_nonminimal_congestion_triggers_detour(self):
        network = dragonfly_network(FavorsNonMinimal(0), vcs=1)
        routing = network.routing
        topo = network.topology
        packet = packet_between(network, 0, topo.num_nodes - 1)
        source = network.routers[0]
        for port in routing.productive_ports(source, packet.dst_router):
            neighbor, inport = source.out_neighbors[port]
            network.plant_packet(neighbor.id, inport, source.id)
        routing.on_inject(packet, now=1000)
        assert packet.intermediate_router is not None
        assert packet.intermediate_router not in (
            packet.src_router, packet.dst_router)

    def test_phase_switches_at_intermediate(self):
        network = dragonfly_network(FavorsNonMinimal(0), vcs=1)
        packet = packet_between(network, 0, 40)
        packet.intermediate_router = 7
        packet.phase = 0
        assert packet.routing_target == 7
        assert not packet.reached_phase_target(7)
        assert packet.routing_target == packet.dst_router


class TestMinimalDragonfly:
    def test_requires_dragonfly(self):
        with pytest.raises(ConfigurationError):
            Network(MeshTopology(4, 4), NetworkConfig(),
                    MinimalDragonflyRouting(0))

    def test_candidates_reduce_distance(self):
        network = dragonfly_network(MinimalDragonflyRouting(0), vcs=1)
        topo = network.topology
        routing = network.routing
        packet = packet_between(network, 0, topo.num_nodes - 1)
        here = packet.src_router
        for port in routing.candidate_outports(network.routers[here], packet):
            neighbor, _ = network.routers[here].out_neighbors[port]
            assert topo.min_hops(neighbor.id, packet.dst_router) < (
                topo.min_hops(here, packet.dst_router))
