"""Unit tests for escape-VC (Duato) routing."""

import pytest

from repro.config import NetworkConfig
from repro.errors import ConfigurationError
from repro.network.network import Network
from repro.network.packet import Packet
from repro.routing.escape import EscapeVcRouting
from repro.topology.mesh import MeshTopology, EAST, SOUTH

from tests.conftest import make_mesh_network


def packet_to(dst, src=0):
    return Packet(src_node=src, dst_node=dst, src_router=src,
                  dst_router=dst, length=1)


@pytest.fixture
def network():
    return make_mesh_network(side=4, vcs=3, routing=EscapeVcRouting(0))


class TestConfiguration:
    def test_requires_two_vcs(self):
        with pytest.raises(ConfigurationError):
            Network(MeshTopology(4, 4), NetworkConfig(vcs_per_vnet=1),
                    EscapeVcRouting(0))


class TestVcDiscipline:
    def test_adaptive_grants_avoid_vc0(self, network):
        routing = network.routing
        packet = packet_to(10)
        packet.route_state["escape"] = False
        assert list(routing.vc_choices(packet, network.routers[0], EAST)) == [1, 2]

    def test_escape_grants_use_vc0_only(self, network):
        routing = network.routing
        packet = packet_to(10)
        packet.route_state["escape"] = True
        assert list(routing.vc_choices(packet, network.routers[0], EAST)) == [0]

    def test_select_marks_escape_when_adaptive_full(self, network):
        routing = network.routing
        mesh = network.topology
        packet = packet_to(mesh.router_at(2, 2))
        router = network.routers[mesh.router_at(0, 0)]
        # Fill every adaptive VC (indices 1, 2) on both productive ports.
        for port in (EAST, SOUTH):
            neighbor, inport = router.out_neighbors[port]
            for index in (1, 2):
                network.plant_packet(neighbor.id, inport, 9, vc_index=index)
        chosen = routing.decide(router, 0, packet, now=10)
        assert packet.route_state["escape"]
        # West-first escape: no west component, so the escape port is
        # one of the productive directions (its west-first choice).
        assert chosen in (EAST, SOUTH)

    def test_select_prefers_adaptive_when_free(self, network):
        routing = network.routing
        mesh = network.topology
        packet = packet_to(mesh.router_at(2, 2))
        router = network.routers[mesh.router_at(0, 0)]
        routing.decide(router, 0, packet, now=0)
        assert not packet.route_state["escape"]


class TestWaitTargets:
    def test_blocked_packet_always_waits_on_escape_too(self, network):
        routing = network.routing
        mesh = network.topology
        packet = packet_to(mesh.router_at(2, 2))
        router = network.routers[mesh.router_at(0, 0)]
        targets = routing.wait_targets(router, packet, now=0)
        escape_vcs = [vcs for port, vcs in targets
                      if any(vc.index == 0 for vc in vcs)]
        assert escape_vcs, "escape VC missing from wait set"

    def test_no_targets_at_destination(self, network):
        routing = network.routing
        packet = packet_to(5)
        assert routing.wait_targets(network.routers[5], packet, now=0) == []


class TestEscapeSubfunctionAcyclic:
    def test_escape_cdg_is_acyclic(self, network):
        from repro.deadlock.cdg import channel_dependency_graph, is_acyclic

        escape_graph = channel_dependency_graph(
            network, routing=network.routing.escape_routing)
        assert is_acyclic(escape_graph)
