"""Unit tests for router switch allocation and the datapath timing contract."""

import pytest

from repro.network.router import EJECT_PORT_BASE, is_ejection_port
from repro.sim.engine import Simulator
from repro.topology.mesh import EAST, MeshTopology, WEST

from tests.conftest import make_mesh_network


def inject_directly(network, src_router, dst_router, length=1, now=0,
                    vnet=0):
    """Plant a packet into the injection-port VC of a router."""
    inport = network.nics[src_router].inject_port
    return network.plant_packet(src_router, inport, dst_router, vnet=vnet,
                                length=length, now=now)


def run(network, cycles):
    simulator = Simulator()
    simulator.register(network)
    simulator.run(cycles)
    return simulator


class TestBasicForwarding:
    def test_single_hop_delivery(self):
        network = make_mesh_network()
        network.stats.open_window(0, None)
        packet = inject_directly(network, src_router=0, dst_router=1)
        run(network, 10)
        assert packet.eject_cycle is not None
        assert packet.hops == 1

    def test_zero_load_latency_scales_with_hops(self):
        # 1-cycle router + 1-cycle link: each hop costs 2 cycles.
        network = make_mesh_network()
        network.stats.open_window(0, None)
        mesh: MeshTopology = network.topology
        packet = inject_directly(network, src_router=mesh.router_at(0, 0),
                                 dst_router=mesh.router_at(3, 0))
        run(network, 20)
        assert packet.hops == 3
        # grant at 0, hops every 2 cycles, ejection link + serialization.
        assert packet.eject_cycle == pytest.approx(2 * 3 + 1, abs=1)

    def test_multi_flit_serialization(self):
        network = make_mesh_network()
        network.stats.open_window(0, None)
        short = inject_directly(network, 0, 3, length=1)
        long = inject_directly(network, 4, 7, length=5)
        run(network, 40)
        assert short.eject_cycle is not None
        assert long.eject_cycle is not None
        # Same hop count; the long packet pays (length - 1) extra cycles.
        assert long.eject_cycle - short.eject_cycle == 4

    def test_hops_equal_min_hops_under_minimal_routing(self):
        network = make_mesh_network()
        network.stats.open_window(0, None)
        packets = [
            inject_directly(network, src, dst)
            for src, dst in [(0, 15), (3, 12), (5, 10), (12, 2)]
        ]
        run(network, 60)
        for packet in packets:
            assert packet.eject_cycle is not None
            assert packet.hops == network.topology.min_hops(
                packet.src_router, packet.dst_router)
            assert packet.misroutes == 0


class TestContention:
    def test_output_port_serializes_competitors(self):
        # Two packets at the same router (separate vnet injection VCs) both
        # want the eastbound link; they must win on different cycles.
        network = make_mesh_network(side=4, vcs=1, num_vnets=2)
        network.stats.open_window(0, None)
        mesh = network.topology
        a = inject_directly(network, mesh.router_at(0, 1), mesh.router_at(3, 1),
                            vnet=0)
        b = inject_directly(network, mesh.router_at(0, 1), mesh.router_at(3, 1),
                            vnet=1)
        run(network, 40)
        assert a.eject_cycle is not None and b.eject_cycle is not None
        assert a.eject_cycle != b.eject_cycle

    def test_injection_port_one_packet_at_a_time(self):
        network = make_mesh_network()
        network.stats.open_window(0, None)
        a = inject_directly(network, 0, 3, length=5, vnet=0)
        run(network, 30)
        assert a.eject_cycle is not None

    def test_frozen_vc_excluded_from_allocation(self):
        network = make_mesh_network()
        network.stats.open_window(0, None)
        packet = inject_directly(network, 0, 3)
        run(network, 2)  # packet reaches router 1's west inport
        # Find the VC holding the packet and freeze it.
        held = None
        for router, inport, vc in network.occupied_vcs():
            if vc.packet is packet:
                held = vc
        assert held is not None
        held.freeze(outport=EAST, source=0, spin_cycle=10_000, path_index=0)
        run(network, 20)
        assert packet.eject_cycle is None  # cannot move while frozen
        held.clear_freeze()
        run(network, 20)
        assert packet.eject_cycle is not None


class TestEjection:
    def test_ejection_port_constants(self):
        assert is_ejection_port(EJECT_PORT_BASE)
        assert not is_ejection_port(3)

    def test_ejection_request_recorded(self):
        network = make_mesh_network()
        network.stats.open_window(0, None)
        packet = inject_directly(network, 0, 0 + 1)
        run(network, 3)
        # After arriving at its destination, the packet requested ejection.
        assert packet.eject_cycle is not None

    def test_stats_count_delivery(self):
        network = make_mesh_network()
        network.stats.open_window(0, None)
        inject_directly(network, 0, 5)
        inject_directly(network, 3, 9)
        run(network, 40)
        assert network.stats.packets_delivered == 2
        assert network.is_drained()
