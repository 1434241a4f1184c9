"""SPIN with multiple virtual networks (message classes).

Routing deadlocks form within one message class, so the recovery machinery
must be scoped per vnet: a probe tracing a vnet-0 chain must neither be
dropped because a vnet-1 buffer happens to be idle at some port, nor freeze
vnet-1 packets.  (The paper's full-system runs use 3 vnets for protocol
deadlock avoidance; these tests pin the interaction down.)
"""

from repro.config import NetworkConfig, SpinParams
from repro.deadlock.waitgraph import has_deadlock
from repro.network.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim.engine import Simulator
from repro.topology.ring import COUNTER_CLOCKWISE, RingTopology


def two_vnet_ring(m=6, tdd=8, seed=1):
    return Network(RingTopology(m), NetworkConfig(vcs_per_vnet=1,
                                                  num_vnets=2),
                   MinimalAdaptiveRouting(seed), spin=SpinParams(tdd=tdd),
                   seed=seed)


def plant_ring_deadlock_in_vnet(network, vnet, dst_ahead=2):
    m = network.topology.num_routers
    return [
        network.plant_packet(router_id, COUNTER_CLOCKWISE,
                             (router_id + dst_ahead) % m, vnet=vnet,
                             src_router=(router_id - 1) % m)
        for router_id in range(m)
    ]


class TestVnetScopedRecovery:
    def test_deadlock_in_one_vnet_with_other_vnet_idle(self):
        # The vnet-1 VCs at every port are idle; under port-wide probe
        # rules the probe would be dropped everywhere and the deadlock
        # would never be confirmed.
        network = two_vnet_ring()
        packets = plant_ring_deadlock_in_vnet(network, vnet=0)
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        assert has_deadlock(network, sim.cycle)
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=2000)
        assert done, dict(network.stats.events)
        assert network.stats.events.get("spins", 0) >= 1

    def test_deadlock_in_upper_vnet(self):
        network = two_vnet_ring()
        packets = plant_ring_deadlock_in_vnet(network, vnet=1)
        sim = Simulator()
        sim.register(network)
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=2000)
        assert done, dict(network.stats.events)

    def test_spin_never_touches_other_vnet_packets(self):
        network = two_vnet_ring()
        deadlocked = plant_ring_deadlock_in_vnet(network, vnet=0)
        # A quiet bystander packet in vnet 1, already at its destination
        # neighborhood, blocked only by ejection scheduling.
        bystander = network.plant_packet(2, COUNTER_CLOCKWISE, 3, vnet=1,
                                         src_router=0)
        sim = Simulator()
        sim.register(network)
        sim.run_until(
            lambda: network.stats.packets_delivered == len(deadlocked) + 1,
            max_cycles=2000)
        assert bystander.spins == 0  # moved normally, never spun
        assert all(p.spins >= 1 for p in deadlocked)

    def test_simultaneous_deadlocks_in_both_vnets(self):
        network = two_vnet_ring(tdd=8)
        a = plant_ring_deadlock_in_vnet(network, vnet=0)
        b = plant_ring_deadlock_in_vnet(network, vnet=1, dst_ahead=3)
        sim = Simulator()
        sim.register(network)
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(a) + len(b),
            max_cycles=6000)
        assert done, dict(network.stats.events)
        assert not has_deadlock(network, sim.cycle)
