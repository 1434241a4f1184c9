"""Unit tests for the ground-truth deadlock oracle."""

from repro.config import SpinParams
from repro.deadlock.waitgraph import (
    blocked_packets,
    deadlocked_vc_chain,
    find_deadlocked_packets,
    has_deadlock,
)
from repro.sim.engine import Simulator

from tests.conftest import craft_ring_deadlock, make_mesh_network, make_ring_network


class TestEmptyAndLightStates:
    def test_empty_network_has_no_deadlock(self):
        network = make_mesh_network()
        assert not has_deadlock(network, 0)
        assert find_deadlocked_packets(network, 0) == set()

    def test_flowing_traffic_is_not_deadlocked(self):
        from repro.traffic.generator import SyntheticTraffic
        from repro.traffic.patterns import make_pattern

        network = make_mesh_network(side=4, vcs=2)
        network.stats.open_window(0, None)
        traffic = SyntheticTraffic(network, make_pattern("uniform", 16), 0.05,
                                   seed=3)
        sim = Simulator()
        sim.register(traffic)
        sim.register(network)
        for _ in range(10):
            sim.run(50)
            assert not has_deadlock(network, sim.cycle)


class TestCraftedRing:
    def test_crafted_ring_is_deadlocked(self):
        network = make_ring_network(m=6)
        packets = craft_ring_deadlock(network)
        # Let route computation record each packet's request once.
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        deadlocked = find_deadlocked_packets(network, 2)
        assert deadlocked == {p.uid for p in packets}

    def test_chain_reports_every_member_vc(self):
        network = make_ring_network(m=5)
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        chain = deadlocked_vc_chain(network, 2)
        assert len(chain) == 5

    def test_breaking_one_dependency_unblocks_all(self):
        network = make_ring_network(m=6)
        packets = craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        assert has_deadlock(network, 2)
        # Remove one packet: the ring now has a free buffer.
        router, inport, vc = next(iter(
            (r, i, v) for r, i, v in network.occupied_vcs()
            if v.packet is packets[0]))
        vc.release(2)
        vc.free_at = 0
        network.note_vc_released(router, vc)
        assert not has_deadlock(network, 3)


class TestBlockedPackets:
    def test_arriving_packets_not_blocked(self):
        network = make_ring_network(m=5)
        craft_ring_deadlock(network)
        # Tamper: pretend one packet's tail has not arrived yet.
        _, _, vc = next(iter(network.occupied_vcs()))
        vc.tail_arrival = 10_000
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        keys = {key for key, _, _ in blocked_packets(network, 2)}
        assert (vc.router, vc.inport, vc.index) not in keys
        # And the incomplete ring is therefore not a deadlock.
        assert not has_deadlock(network, 2)

    def test_spin_recovery_clears_oracle(self):
        network = make_ring_network(m=6, spin=SpinParams(tdd=8))
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        assert has_deadlock(network, sim.cycle)
        sim.run(600)
        assert not has_deadlock(network, sim.cycle)
        assert network.stats.events.get("spins", 0) >= 1
