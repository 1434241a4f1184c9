"""Unit tests for switch-allocation arbitration fairness and constraints."""

from repro.config import SpinParams
from repro.network.packet import Packet
from repro.sim.engine import Simulator
from repro.topology.mesh import EAST, MeshTopology

from tests.conftest import make_mesh_network


class TestRoundRobinFairness:
    def test_no_starvation_under_persistent_rival(self):
        # A packet at the WEST inport competes against a continuously
        # replenished stream at the SOUTH inport for the same east link;
        # round-robin arbitration must still serve it promptly.
        network = make_mesh_network(side=4, vcs=1)
        network.stats.open_window(0, None)
        mesh: MeshTopology = network.topology
        center = mesh.router_at(1, 1)
        dst = mesh.router_at(3, 1)
        from repro.topology.mesh import SOUTH, WEST

        sim = Simulator()
        sim.register(network)
        victim = network.plant_packet(center, WEST, dst, now=sim.cycle)
        rival = network.plant_packet(center, SOUTH, dst, now=sim.cycle)
        for _ in range(12):
            sim.run(1)
            if victim.hops >= 1:
                break
            vc = network.routers[center].inports[SOUTH][0]
            if vc.is_idle(sim.cycle):
                rival = network.plant_packet(center, SOUTH, dst,
                                             now=sim.cycle)
        assert victim.hops >= 1, "round-robin must not starve the west port"

    def test_one_grant_per_output_port_per_cycle(self):
        network = make_mesh_network(side=4, vcs=1)
        network.stats.open_window(0, None)
        mesh = network.topology
        center = mesh.router_at(1, 1)
        dst = mesh.router_at(3, 1)
        from repro.topology.mesh import NORTH, SOUTH, WEST

        packets = [
            network.plant_packet(center, WEST, dst),
            network.plant_packet(center, SOUTH, dst),
            network.plant_packet(center, NORTH, dst),
        ]
        sim = Simulator()
        sim.register(network)
        sim.run(1)
        assert sum(p.hops for p in packets) == 1

    def test_one_grant_per_input_port_per_cycle(self):
        # Two VCs at the same input port requesting different outputs may
        # not both cross the switch in one cycle.
        network = make_mesh_network(side=4, vcs=2)
        network.stats.open_window(0, None)
        mesh = network.topology
        center = mesh.router_at(1, 1)
        from repro.topology.mesh import WEST

        a = network.plant_packet(center, WEST, mesh.router_at(3, 1),
                                 vc_index=0)
        b = network.plant_packet(center, WEST, mesh.router_at(1, 3),
                                 vc_index=1)
        sim = Simulator()
        sim.register(network)
        sim.run(1)
        assert a.hops + b.hops == 1
        sim.run(1)
        assert a.hops + b.hops == 2


class TestAllocationSkipsQuietRouters:
    def test_empty_router_costs_nothing(self):
        network = make_mesh_network(side=4)
        assert network.routers[5].allocate(now=0) == 0

    def test_active_counter_tracks_occupancy(self):
        network = make_mesh_network(side=4)
        router = network.routers[5]
        assert router.active_vcs == 0
        packet = network.plant_packet(5, 1, 7)
        assert router.active_vcs == 1
        sim = Simulator()
        sim.register(network)
        sim.run(20)
        assert router.active_vcs == 0
