"""Contracts of ``Network.rotate`` and ``Network.ring_defect``.

The distributed executor, the centralized plane and the proactive plane
move packets only through ``Network.rotate``; these tests pin what the
one move guarantees to each of them: a link carries one packet per cycle
(a ring that crosses a link twice is refused), the ``max_spins`` valve,
and how a landing sets the target's ``free_at``.
"""

import pytest

from repro.config import NetworkConfig, SpinParams
from repro.core.centralized import CentralizedSpinPlane
from repro.core.proactive import ProactiveSpinPlane
from repro.errors import SimulationError
from repro.network.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim.engine import Simulator
from repro.topology.ring import CLOCKWISE, COUNTER_CLOCKWISE, RingTopology

from tests.conftest import craft_ring_deadlock, make_ring_network


def two_lap_ring(network, m):
    """Fill both VCs of every counter-clockwise input of an m-ring and
    return them as one closed ring that goes round twice: VC 0 of routers
    0..m-1, then VC 1 of routers 0..m-1.  Every clockwise link is crossed
    by two of its moves."""
    for vc_index in (0, 1):
        for router_id in range(m):
            network.plant_packet(router_id, COUNTER_CLOCKWISE,
                                 (router_id + 2) % m, vc_index=vc_index,
                                 src_router=(router_id - 1) % m)
    return [network.routers[router_id].inports[COUNTER_CLOCKWISE][vc_index]
            for vc_index in (0, 1) for router_id in range(m)]


def closed_moves(entries):
    count = len(entries)
    return [(vc, CLOCKWISE, entries[(i + 1) % count])
            for i, vc in enumerate(entries)]


def resident_packets(network):
    return {(router.id, inport, vc.index): vc.packet.uid
            for router, inport, vc in network.occupied_vcs()}


class TestOneLinkOnce:
    def test_ring_defect_names_a_repeated_link(self):
        network = make_ring_network(m=4, vcs=2)
        moves = closed_moves(two_lap_ring(network, 4))
        assert network.ring_defect(moves, now=5) == "link_busy"
        # One lap of the same ring is a legal spin.
        lap = closed_moves([vc for vc, _, _ in moves[:4]])
        assert network.ring_defect(lap, now=5) is None

    def test_executor_aborts_a_two_lap_group(self):
        network = make_ring_network(m=4, vcs=2, spin=SpinParams(tdd=8))
        entries = two_lap_ring(network, 4)
        before = resident_packets(network)
        spin_cycle = 5
        for index, vc in enumerate(entries):
            vc.freeze(CLOCKWISE, source=0, spin_cycle=spin_cycle,
                      path_index=index)
            network.spin.executor.register(vc)
        assert network.spin.executor.execute(spin_cycle) == 0
        events = network.stats.events
        assert events["spins_aborted_link_busy"] == 1
        assert events.get("spins", 0) == 0
        assert events.get("spin_hops", 0) == 0
        assert not any(vc.frozen for vc in entries)
        assert resident_packets(network) == before

    def test_centralized_plane_skips_a_two_lap_ring(self):
        plane = CentralizedSpinPlane(check_period=8)
        network = Network(RingTopology(4), NetworkConfig(vcs_per_vnet=2),
                          MinimalAdaptiveRouting(1),
                          control_planes=(plane,), seed=1)
        entries = two_lap_ring(network, 4)
        before = resident_packets(network)
        plane._spin([(vc, CLOCKWISE) for vc in entries], now=8)
        assert plane.spins_performed == 0
        assert network.stats.events.get("centralized_spins", 0) == 0
        assert resident_packets(network) == before


class TestMaxSpins:
    def test_packet_past_the_valve_raises(self):
        # dst_ahead=2 on a 1-VC ring needs exactly two spins per packet.
        network = make_ring_network(m=6, spin=SpinParams(tdd=8, max_spins=1))
        packets = craft_ring_deadlock(network, dst_ahead=2)
        sim = Simulator()
        sim.register(network)
        with pytest.raises(SimulationError) as caught:
            sim.run(4000)
        context = caught.value.context
        assert context["spins"] == 2
        assert context["packet"] in {packet.uid for packet in packets}
        assert context["router"] in range(6)
        assert context["initiator"] in range(6)
        assert context["fsm_state"]
        # The second spin raises before it is counted.
        assert network.stats.events["spins"] == 1


def spy_landings(network):
    """Record every target of every ``rotate`` call as
    ``(now, free_at between vacate and land, free_at after, vacated)``."""
    landings = []
    rotate = network.rotate
    note_released = network.note_vc_released

    def spying_rotate(moves, now):
        vacated = []
        between = []

        def released(router, vc):
            note_released(router, vc)
            vacated.append(vc)
            if len(vacated) == len(moves):
                between.extend(target.free_at for _, _, target in moves)

        network.note_vc_released = released
        try:
            packets = rotate(moves, now)
        finally:
            del network.note_vc_released
        for (_, _, target), free_at in zip(moves, between):
            landings.append((now, free_at, target.free_at,
                             any(target is vc for vc in vacated)))
        return packets

    network.rotate = spying_rotate
    return landings


def drain_planted_ring(network, max_cycles=8000):
    packets = craft_ring_deadlock(network, dst_ahead=2)
    landings = spy_landings(network)
    sim = Simulator()
    sim.register(network)
    assert sim.run_until(
        lambda: network.stats.packets_delivered == len(packets),
        max_cycles=max_cycles)
    assert landings
    return landings


class TestLandingFreeAt:
    @pytest.mark.parametrize("plane", ["executor", "centralized"])
    def test_ring_targets_are_all_vacated_in_the_same_cycle(self, plane):
        if plane == "executor":
            network = make_ring_network(m=6, spin=SpinParams(tdd=8))
        else:
            network = Network(RingTopology(6), NetworkConfig(vcs_per_vnet=1),
                              MinimalAdaptiveRouting(1),
                              control_planes=(CentralizedSpinPlane(8),),
                              seed=1)
        landings = drain_planted_ring(network)
        # Every target was released by the move itself, so it is not free
        # yet when its new packet lands: min(free_at, now) is now.
        assert all(vacated and between > now
                   for now, between, _after, vacated in landings)
        assert all(after == now for now, _between, after, _ in landings)

    def test_proactive_landing_in_an_idle_buffer_keeps_its_free_at(self):
        network = Network(RingTopology(6), NetworkConfig(vcs_per_vnet=1),
                          MinimalAdaptiveRouting(1),
                          control_planes=(ProactiveSpinPlane(16, 8),),
                          seed=1)
        landings = drain_planted_ring(network)
        idle = [(now, between, after)
                for now, between, after, vacated in landings if not vacated]
        assert idle
        assert all(after == between < now for now, between, after in idle)
        assert all(after == now for now, _between, after, vacated in landings
                   if vacated)
