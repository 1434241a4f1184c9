"""Unit tests for NIC injection/ejection and network assembly."""

import pytest

from repro.config import NetworkConfig
from repro.network.network import Network
from repro.network.packet import Packet
from repro.network.router import EJECT_PORT_BASE, INJECT_PORT_BASE
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim.engine import Simulator
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.mesh import MeshTopology

from tests.conftest import make_mesh_network


def make_nic_packet(network, src, dst, length=1, vnet=0, reply=0):
    packet = Packet(src_node=src, dst_node=dst,
                    src_router=network.topology.router_of_node(src),
                    dst_router=network.topology.router_of_node(dst),
                    length=length, vnet=vnet, create_cycle=0)
    packet.reply_length = reply
    network.stats.record_creation(packet, 0)
    return packet


class TestNicInjection:
    def test_enqueue_and_inject(self):
        network = make_mesh_network()
        network.stats.open_window(0, None)
        nic = network.nics[0]
        nic.enqueue(make_nic_packet(network, 0, 5))
        assert nic.backlog() == 1
        simulator = Simulator()
        simulator.register(network)
        simulator.run(30)
        assert nic.backlog() == 0
        assert network.stats.packets_delivered == 1

    def test_backlog_when_vc_busy(self):
        network = make_mesh_network(vcs=1)
        network.stats.open_window(0, None)
        nic = network.nics[0]
        for _ in range(4):
            nic.enqueue(make_nic_packet(network, 0, 15, length=5))
        assert nic.backlog() == 4
        simulator = Simulator()
        simulator.register(network)
        simulator.run(2)
        # One packet in flight; others still queued behind the busy VC.
        assert nic.backlog() >= 2
        simulator.run(200)
        assert nic.backlog() == 0
        assert network.stats.packets_delivered == 4

    def test_vnet_queues_round_robin(self):
        network = make_mesh_network(num_vnets=2)
        network.stats.open_window(0, None)
        nic = network.nics[0]
        nic.enqueue(make_nic_packet(network, 0, 5, vnet=0))
        nic.enqueue(make_nic_packet(network, 0, 5, vnet=1))
        simulator = Simulator()
        simulator.register(network)
        simulator.run(40)
        assert network.stats.packets_delivered == 2

    def test_reply_generation(self):
        network = make_mesh_network(num_vnets=3)
        network.stats.open_window(0, None)
        nic = network.nics[0]
        nic.enqueue(make_nic_packet(network, 0, 5, length=1, reply=5))
        simulator = Simulator()
        simulator.register(network)
        simulator.run(80)
        # Request + reply both delivered; reply came back to node 0.
        assert network.stats.packets_delivered == 2
        assert network.nics[0].packets_received == 1
        assert network.nics[5].packets_received == 1


class TestNetworkAssembly:
    def test_mesh_wiring(self):
        network = make_mesh_network(side=4)
        assert len(network.routers) == 16
        assert len(network.nics) == 16
        # Every topology link materialized exactly once.
        assert len(network.links) == len(network.topology.links())

    def test_out_neighbors_match_topology(self):
        network = make_mesh_network(side=4)
        for router in network.routers:
            for port, (neighbor, dst_port) in router.out_neighbors.items():
                expected = network.topology.neighbors(router.id)[port]
                assert (neighbor.id, dst_port) == expected[:2]

    def test_vcs_created_per_config(self):
        network = Network(MeshTopology(3, 3),
                          NetworkConfig(vcs_per_vnet=2, num_vnets=3),
                          MinimalAdaptiveRouting(0))
        router = network.routers[4]
        for port in router.inports:
            assert len(router.vcs_at(port)) == 6
        assert len(router.vnet_slice(port, 1)) == 2
        assert all(vc.vnet == 1 for vc in router.vnet_slice(port, 1))

    def test_downstream_rows_are_the_neighbours_vnet_slices(self):
        network = Network(MeshTopology(3, 3),
                          NetworkConfig(vcs_per_vnet=2, num_vnets=3),
                          MinimalAdaptiveRouting(0))
        router = network.routers[4]
        for outport, (neighbor, dst_port) in router.out_neighbors.items():
            for vnet in range(3):
                row = router.downstream_vcs(outport, vnet)
                assert list(row) == neighbor.vnet_slice(dst_port, vnet)
                assert router.downstream_vcs(outport, vnet) is row

    def test_multiple_nics_per_router_on_dragonfly(self):
        network = Network(DragonflyTopology(2, 4, 2),
                          NetworkConfig(vcs_per_vnet=1),
                          MinimalAdaptiveRouting(0))
        router0_nics = [nic for nic in network.nics if nic.router_id == 0]
        assert len(router0_nics) == 2
        ports = {nic.inject_port for nic in router0_nics}
        assert ports == {INJECT_PORT_BASE, INJECT_PORT_BASE + 1}
        assert network.eject_port_for(router0_nics[1].node) == EJECT_PORT_BASE + 1

    def test_spin_control_plane_attached_when_enabled(self):
        from repro.config import SpinParams

        without = make_mesh_network()
        assert without.spin is None
        with_spin = make_mesh_network(spin=SpinParams(tdd=16))
        assert with_spin.spin is not None
        assert len(with_spin.spin.controllers) == 16
