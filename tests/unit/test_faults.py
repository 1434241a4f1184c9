"""Unit tests for the fault injection subsystem (docs/FAULTS.md)."""

import networkx as nx
import pytest

from repro.config import NetworkConfig, SpinParams
from repro.errors import ConfigurationError, FaultInjectionError
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    SmFaultPolicy,
    format_fault_spec,
    parse_fault_spec,
)
from repro.network.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.routing.table import UpDownRouting
from repro.sim.engine import Simulator
from repro.topology.irregular import IrregularTopology
from repro.topology.mesh import MeshTopology

from tests.conftest import make_mesh_network

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_parses_mixed_spec(self):
        schedule = parse_fault_spec(
            "link_down@1000:r3-r4,sm_drop:p=0.01,router_down@50:r7,"
            "sm_delay@10:d=5:kind=probe:n=3,link_up@2000:r3-r4")
        assert len(schedule.timed_events) == 3
        assert len(schedule.sm_policies) == 2
        down, gate, up = schedule.timed_events
        assert (down.cycle, down.a, down.b, down.up) == (1000, 3, 4, False)
        assert (gate.cycle, gate.router, gate.up) == (50, 7, False)
        assert up.up is True
        drop, delay = schedule.sm_policies
        assert drop.action == "drop" and drop.probability == 0.01
        assert delay.action == "delay" and delay.delay == 5
        assert delay.kind == "probe" and delay.count == 3 and delay.after == 10

    def test_round_trips_through_format(self):
        spec = ("link_down@1000:r3-r4,router_down@50:r7,"
                "sm_drop:p=0.01,sm_delay@10:kind=probe:n=3:d=5")
        schedule = parse_fault_spec(spec)
        assert parse_fault_spec(format_fault_spec(schedule)) == schedule

    @pytest.mark.parametrize("bad", [
        "",
        "link_down:r3-r4",           # missing @cycle
        "link_down@10:r3",           # not a channel
        "link_down@10:r3-r3",        # self loop
        "router_down@10:r3-r4",      # channel arg on router event
        "sm_drop:p=0",               # probability out of range
        "sm_drop:p=1.5",
        "sm_drop:q=0.5",             # unknown parameter
        "sm_drop:kind=warp",         # unknown SM kind
        "sm_delay",                  # delay needs d>=1
        "sm_drop:d=4",               # d only for delay
        "sm_drop:n=0",               # empty budget
        "sm_drop@20:until=10",       # until <= after
        "warp_core_breach",          # unknown event
        "link_down@x:r1-r2",         # non-numeric cycle
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(FaultInjectionError):
            parse_fault_spec(bad)

    def test_error_context_names_the_event(self):
        with pytest.raises(FaultInjectionError) as excinfo:
            parse_fault_spec("link_down@10:r3")
        assert excinfo.value.context.get("event") == "link_down@10:r3"


class TestPolicyWindows:
    def test_window_and_kind_matching(self):
        policy = SmFaultPolicy(action="drop", after=10, until=20, kind="probe")
        assert not policy.active_at(9)
        assert policy.active_at(10)
        assert policy.active_at(19)
        assert not policy.active_at(20)
        assert policy.matches_kind("probe")
        assert not policy.matches_kind("move")

    def test_unscoped_policy_matches_everything(self):
        policy = SmFaultPolicy(action="corrupt")
        assert policy.active_at(0)
        for kind in ("probe", "move", "probe_move", "kill_move"):
            assert policy.matches_kind(kind)


# ----------------------------------------------------------------------
# Injector: timed events
# ----------------------------------------------------------------------
def _mesh_with_injector(spec, side=4, seed=0, spin=None, **kwargs):
    network = make_mesh_network(side=side, spin=spin)
    injector = FaultInjector(parse_fault_spec(spec), seed=seed, **kwargs)
    injector.bind(network)
    sim = Simulator()
    sim.register(injector)
    sim.register(network)
    return network, injector, sim


class TestInjectorEvents:
    def test_link_event_downs_both_directions(self):
        network, injector, sim = _mesh_with_injector("link_down@5:r0-r1")
        sim.run(5)
        assert network.dead_link_count == 0
        sim.run(1)
        assert network.dead_link_count == 2
        assert not network.link_is_up(0, _port_toward(network, 0, 1))
        assert not network.link_is_up(1, _port_toward(network, 1, 0))
        assert injector.faults_fired == 1
        assert network.stats.events["link_down_events"] == 2

    def test_link_up_restores(self):
        network, _, sim = _mesh_with_injector(
            "link_down@2:r0-r1,link_up@10:r0-r1")
        sim.run(11)
        assert network.dead_link_count == 0
        assert network.stats.events["link_up_events"] == 2

    def test_router_gate_downs_adjacent_channels(self):
        # Router 5 of a 4x4 mesh is interior: 4 neighbors, 8 directed links.
        network, injector, sim = _mesh_with_injector("router_down@3:r5")
        sim.run(4)
        assert network.dead_link_count == 8
        assert injector.gated_routers() == (5,)

    def test_router_ungate_restores_only_previously_alive_links(self):
        network, injector, sim = _mesh_with_injector(
            "link_down@1:r5-r6,router_down@3:r5,router_up@8:r5")
        sim.run(9)
        # The r5-r6 channel died independently before the gate: it stays dead.
        assert injector.gated_routers() == ()
        assert network.dead_link_count == 2

    def test_gating_drops_buffered_packets(self):
        from repro.topology.mesh import WEST

        # Gate at cycle 0 so the resident packet cannot escape first.
        network, _, sim = _mesh_with_injector("router_down@0:r5")
        packet = network.plant_packet(router_id=5, inport=WEST,
                                      dst_router=7)
        sim.run(3)
        assert network.stats.packets_lost == 1
        assert network.stats.events["packets_lost_power_gate"] == 1
        assert packet.measured is False

    def test_unknown_channel_rejected_at_bind(self):
        network = make_mesh_network(side=4)
        injector = FaultInjector(parse_fault_spec("link_down@5:r0-r5"))
        with pytest.raises(FaultInjectionError):
            injector.bind(network)  # 0 and 5 are not mesh neighbors

    def test_unknown_router_rejected_at_bind(self):
        network = make_mesh_network(side=4)
        injector = FaultInjector(parse_fault_spec("router_down@5:r99"))
        with pytest.raises(FaultInjectionError):
            injector.bind(network)

    def test_set_link_state_unknown_channel_raises(self):
        network = make_mesh_network(side=4)
        with pytest.raises(ConfigurationError):
            network.set_channel_state(0, 5, up=False)


# ----------------------------------------------------------------------
# Injector: SM policies
# ----------------------------------------------------------------------
class _FakeSm:
    kind = "probe"

    def __init__(self, path=(1, 2)):
        self.path = tuple(path)

    def with_path(self, path):
        return _FakeSm(path)


class TestSmPolicies:
    def _injector(self, spec, seed=0):
        network = make_mesh_network(side=4)
        injector = FaultInjector(parse_fault_spec(spec), seed=seed)
        injector.bind(network)
        return network, injector

    def test_budget_limits_deterministic_drops(self):
        network, injector = self._injector("sm_drop:n=2")
        results = [injector.filter_sm(_FakeSm(), None, now) for now in range(4)]
        assert results[0] is None and results[1] is None
        assert results[2] is not None and results[3] is not None
        assert network.stats.events["sm_dropped"] == 2
        assert network.stats.events["sm_dropped_probe"] == 2

    def test_kind_scoping(self):
        _, injector = self._injector("sm_drop:kind=move")
        assert injector.filter_sm(_FakeSm(), None, 0) is not None

    def test_window_scoping(self):
        _, injector = self._injector("sm_drop@10:until=12")
        assert injector.filter_sm(_FakeSm(), None, 9) is not None
        assert injector.filter_sm(_FakeSm(), None, 10) is None
        assert injector.filter_sm(_FakeSm(), None, 12) is not None

    def test_delay_returns_extra_latency(self):
        network, injector = self._injector("sm_delay:d=7")
        sm, extra = injector.filter_sm(_FakeSm(), None, 0)
        assert extra == 7
        assert network.stats.events["sm_delayed"] == 1

    def test_corrupt_truncates_path(self):
        network, injector = self._injector("sm_corrupt")
        sm, extra = injector.filter_sm(_FakeSm(path=(1, 2, 3)), None, 0)
        assert sm.path == (1, 2)
        assert network.stats.events["sm_corrupted"] == 1
        # An empty path cannot be truncated: the SM is lost outright.
        assert injector.filter_sm(_FakeSm(path=()), None, 1) is None
        assert network.stats.events["sm_dropped"] == 1

    def test_probabilistic_drops_are_seed_deterministic(self):
        def realize(seed):
            _, injector = self._injector("sm_drop:p=0.4", seed=seed)
            return tuple(injector.filter_sm(_FakeSm(), None, now) is None
                         for now in range(64))

        assert realize(7) == realize(7)
        assert realize(7) != realize(8)

    def test_first_matching_policy_wins(self):
        network, injector = self._injector("sm_delay:d=3:n=1,sm_drop")
        sm, extra = injector.filter_sm(_FakeSm(), None, 0)
        assert extra == 3  # delay policy matched first
        assert injector.filter_sm(_FakeSm(), None, 1) is None  # budget spent


# ----------------------------------------------------------------------
# Routing degradation
# ----------------------------------------------------------------------
class TestUpDownRecompute:
    def _updown_network(self, graph=None):
        topology = IrregularTopology(graph or nx.complete_graph(4))
        return Network(topology, NetworkConfig(vcs_per_vnet=1),
                       UpDownRouting(seed=1), seed=1)

    def test_distances_recompute_around_dead_link(self):
        from repro.network.packet import Packet

        network = self._updown_network()
        routing = network.routing
        before = routing.legal_path_length(1, 2)
        network.set_channel_state(1, 2, up=False)
        after = routing.legal_path_length(1, 2)
        assert after > before  # forced up through the root and back down
        assert network.stats.events["routing_recomputes"] == 2
        packet = Packet(src_node=1, dst_node=2, src_router=1, dst_router=2,
                        length=1)
        routing.on_inject(packet, 0)
        ports = routing.candidate_outports(network.routers[1], packet)
        assert ports  # rerouted, not stranded
        for port in ports:
            assert network.routers[1].out_neighbors[port][0].id != 2

    def test_link_up_restores_short_path(self):
        network = self._updown_network()
        routing = network.routing
        before = routing.legal_path_length(1, 2)
        network.set_channel_state(1, 2, up=False)
        network.set_channel_state(1, 2, up=True)
        assert routing.legal_path_length(1, 2) == before

    def test_cycle_graph_pair_strands_without_legal_path(self):
        # On a pure ring, every detour needs an up hop after a down hop, so
        # killing a channel strands the adjacent pair: documented graceful
        # degradation (the pair waits for link_up) rather than an exception.
        from repro.network.packet import Packet

        network = self._updown_network(nx.cycle_graph(6))
        routing = network.routing
        network.set_channel_state(1, 2, up=False)
        assert routing.legal_path_length(1, 2) >= routing._infinity
        packet = Packet(src_node=1, dst_node=2, src_router=1, dst_router=2,
                        length=1)
        routing.on_inject(packet, 0)
        assert routing.candidate_outports(network.routers[1], packet) == ()


class TestStrandedReclamation:
    def test_stranded_packet_dropped_after_timeout(self):
        from repro.topology.mesh import SOUTH

        # 2x2 mesh: under minimal routing, router 0's only productive port
        # toward router 1 is the r0-r1 edge.
        network = Network(MeshTopology(2, 2), NetworkConfig(vcs_per_vnet=1),
                          MinimalAdaptiveRouting(1), seed=1)
        injector = FaultInjector(parse_fault_spec("link_down@0:r0-r1"),
                                 drop_stranded_after=32)
        injector.bind(network)
        sim = Simulator()
        sim.register(injector)
        sim.register(network)
        network.plant_packet(router_id=0, inport=SOUTH, dst_router=1)
        sim.run(100)
        assert network.stats.packets_lost == 1
        assert network.stats.events["packets_lost_stranded"] == 1
        assert network.stats.events["packets_stranded"] == 1

    def test_reclamation_disabled_keeps_packet(self):
        from repro.topology.mesh import SOUTH

        network = Network(MeshTopology(2, 2), NetworkConfig(vcs_per_vnet=1),
                          MinimalAdaptiveRouting(1), seed=1)
        injector = FaultInjector(parse_fault_spec("link_down@0:r0-r1"),
                                 drop_stranded_after=0)
        injector.bind(network)
        sim = Simulator()
        sim.register(injector)
        sim.register(network)
        network.plant_packet(router_id=0, inport=SOUTH, dst_router=1)
        sim.run(100)
        assert network.stats.packets_lost == 0
        assert network.packets_in_flight() == 1


def _port_toward(network, src, dst):
    for port, (neighbor, _) in network.routers[src].out_neighbors.items():
        if neighbor.id == dst:
            return port
    raise AssertionError(f"no port from {src} toward {dst}")


# ----------------------------------------------------------------------
# Constructor validation
# ----------------------------------------------------------------------
class TestInjectorConstruction:
    def test_requires_schedule_instance(self):
        with pytest.raises(FaultInjectionError):
            FaultInjector("link_down@5:r0-r1")

    def test_rejects_negative_strand_timeout(self):
        with pytest.raises(FaultInjectionError):
            FaultInjector(FaultSchedule(), drop_stranded_after=-1)

    def test_empty_schedule_is_inert(self):
        network, injector, sim = _mesh_with_injector("sm_drop:n=1")
        assert not injector.schedule.empty
        assert FaultSchedule().empty
        sim.run(50)
        assert network.dead_link_count == 0
