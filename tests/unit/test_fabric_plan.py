"""The shared fabric plan: layout, sharing contract and immutability.

A plan is compiled once per ``(topology instance, num_vnets, vcs_per_vnet)``
and outlives every point run on it, so these tests pin (a) that it is the
layout the network objects actually have, (b) who shares what, and (c) that
nothing a run does — a deadlock storm, runtime link failures, a deadlock
planted mid-run on a compiled SoA core — leaves a trace in it.
"""

import hashlib
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NetworkConfig, SimulationConfig
from repro.harness.configs import build_network, shared_topology
from repro.harness.runner import ExperimentSpec
from repro.network.network import Network
from repro.network.plan import FabricPlan
from repro.network.router import EJECT_PORT_BASE
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim import create_engine
from repro.topology.base import Topology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.mesh import MeshTopology
from repro.topology.ring import RingTopology

from tests.conftest import craft_square_deadlock


def _network(topology, vcs=1, num_vnets=1, seed=1):
    return Network(topology=topology,
                   config=NetworkConfig(vcs_per_vnet=vcs,
                                        num_vnets=num_vnets),
                   routing=MinimalAdaptiveRouting(seed), seed=seed)


def _fill_lazy_rows(topology):
    """Ask for every hop and productive-port row, so a digest covers the
    complete tables rather than whatever a run happened to touch."""
    count = topology.num_routers
    for target in range(count):
        topology.hops_to(target)
        for router in range(count):
            topology.productive_ports(router, target)


def plan_digest(plan) -> str:
    """sha256 over every table of a plan and of its topology."""
    topology = plan.topology
    tables = [(f.name, getattr(plan, f.name)) for f in fields(plan)
              if f.name != "topology"]
    tables += [
        ("links", topology.links()),
        ("neighbors", [sorted(topology.neighbors(router).items())
                       for router in range(topology.num_routers)]),
        ("distance", topology._distance_cache),
        ("hop_rows", sorted(topology._hop_rows.items())),
        ("productive", topology._productive_rows),
        ("router_nodes", topology._router_nodes),
        ("plans", sorted(topology.plans)),
    ]
    return hashlib.sha256(repr(tables).encode("utf-8")).hexdigest()


TOPOLOGIES = [
    MeshTopology(4, 3),
    RingTopology(5),
    DragonflyTopology(2, 4, 2),
    FatTreeTopology(3, 2, terminals_per_leaf=2),
]


class TestLayoutMatchesTheObjects:
    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: type(t).__name__)
    @pytest.mark.parametrize("vcs,num_vnets", [(1, 1), (2, 3)])
    def test_vid_space_is_the_scan_order(self, topology, vcs, num_vnets):
        network = _network(topology, vcs, num_vnets)
        plan = network.plan
        vid = 0
        for rid, router in enumerate(network.routers):
            assert plan.r_lo[rid] == vid
            assert tuple(router.inports) == plan.net_ports[rid]
            assert len(router.local_inports) == plan.local_counts[rid]
            scanned = [vc for _, vcs_ in router.all_inports() for vc in vcs_]
            assert list(router._scan) == scanned
            for vc in scanned:
                assert plan.vc_arbkey[vid] == vc.inport * 64 + vc.index
                assert vc.vnet == vc.index // vcs
                upstream = [link.src for link in network.links.values()
                            if (link.dst, link.dst_port)
                            == (rid, vc.inport)]
                assert plan.up_rid[vid] == (upstream[0] if upstream else -1)
                owner = [nic.node for nic in network.nics
                         if (nic.router_id, nic.inject_port)
                         == (rid, vc.inport)]
                assert plan.nic_of[vid] == (owner[0] if owner else -1)
                vid += 1
        assert plan.r_lo[-1] == vid

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: type(t).__name__)
    def test_downstream_and_injection_rows(self, topology):
        network = _network(topology, vcs=2, num_vnets=2)
        plan = network.plan
        for router in network.routers:
            for outport, (neighbor, inport) in router.out_neighbors.items():
                assert (neighbor.id, inport) \
                    == topology.neighbors(router.id)[outport][:2]
                for vnet in range(2):
                    assert list(router.downstream_vcs(outport, vnet)) \
                        == neighbor.vnet_slice(inport, vnet)
        for nic in network.nics:
            assert plan.nic_places[nic.node] \
                == (nic.router_id, nic.local_index)
            assert plan.eject_of[nic.node] \
                == EJECT_PORT_BASE + nic.local_index \
                == network.eject_port_for(nic.node)

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: type(t).__name__)
    def test_nodes_of_router_is_the_placement(self, topology):
        for router in range(topology.num_routers):
            assert topology.nodes_of_router(router) == tuple(
                node for node in range(topology.num_nodes)
                if topology.router_of_node(node) == router)

    def test_productive_rows_are_pure_and_interned(self):
        topology = DragonflyTopology(2, 4, 2)
        for router in range(topology.num_routers):
            for target in range(topology.num_routers):
                ports = topology.productive_ports(router, target)
                here = topology.min_hops(router, target)
                assert ports == tuple(
                    port for port, (peer, _, _)
                    in sorted(topology.neighbors(router).items())
                    if topology.min_hops(peer, target) < here)
                assert topology.productive_ports(router, target) is ports
        distinct = {id(ports) for row in topology._productive_rows
                    for ports in row}
        assert len(distinct) == len(topology._port_tuples)


class TestSharingContract:
    def test_one_plan_per_topology_and_vc_shape(self):
        topology = MeshTopology(4, 4)
        first = _network(topology, vcs=1)
        second = _network(topology, vcs=1, seed=9)
        wider = _network(topology, vcs=3)
        assert first.plan is second.plan
        assert wider.plan is not first.plan
        assert set(topology.plans) == {(1, 1), (1, 3)}
        # Latencies and buffer depths do not shape the layout.
        assert FabricPlan.of(topology, NetworkConfig(
            vcs_per_vnet=1, router_latency=2)) is first.plan

    def test_networks_on_one_plan_share_no_state(self):
        topology = MeshTopology(4, 4)
        first, second = _network(topology), _network(topology)
        assert first.routers[5] is not second.routers[5]
        assert first.routers[5]._scan[0] is not second.routers[5]._scan[0]
        assert first.links[(0, 1)] is not second.links[(0, 1)]
        assert first.nics[3] is not second.nics[3]
        assert first.stats is not second.stats

    def test_build_network_hands_out_one_topology_per_shape(self):
        first = build_network("mesh:minadaptive-spin-1vc", mesh_side=4)
        second = build_network("mesh:westfirst-2vc", mesh_side=4, seed=3)
        other = build_network("mesh:minadaptive-spin-1vc", mesh_side=5)
        assert first.topology is second.topology
        assert other.topology is not first.topology
        assert first.routers[0] is not second.routers[0]
        # A directly constructed topology is private to its maker.
        assert MeshTopology(4, 4) is not first.topology

    @staticmethod
    def _count_searches(monkeypatch):
        """Record the source of every BFS any topology runs."""
        sources = []
        real = Topology._bfs_hops
        monkeypatch.setattr(
            Topology, "_bfs_hops",
            lambda self, source: sources.append(source) or real(self, source))
        return sources

    def test_topology_validates_once(self, monkeypatch):
        topology = MeshTopology(3, 3)
        sources = self._count_searches(monkeypatch)
        for vcs in (1, 2, 1):
            _network(topology, vcs=vcs)
        topology.validate()
        assert sources == [0]   # one connectivity search, ever

    def test_validate_fills_the_bfs_table(self, monkeypatch):
        topology = DragonflyTopology(1, 2, 1)   # routes by the BFS table
        sources = self._count_searches(monkeypatch)
        topology.validate()
        assert topology.min_hops(0, topology.num_routers - 1) >= 1
        assert topology.hops_to(1)[0] >= 1
        # Connectivity from router 0, then one search per source, all
        # inside validate(): the lookups above searched nothing.
        assert sources == [0] + list(range(topology.num_routers))


class TestImmutability:
    def test_every_table_is_a_tuple(self):
        plan = _network(DragonflyTopology(2, 4, 2), vcs=2).plan

        def assert_frozen(value, where):
            if isinstance(value, tuple):
                for item in value:
                    assert_frozen(item, where)
            else:
                assert isinstance(value, int), (where, type(value))

        for f in fields(plan):
            if f.name != "topology":
                assert_frozen(getattr(plan, f.name), f.name)
        with pytest.raises(FrozenInstanceError):
            plan.r_lo = ()
        topology = plan.topology
        assert isinstance(topology.links(), tuple)
        assert isinstance(topology.hops_to(0), tuple)
        assert isinstance(topology.nodes_of_router(0), tuple)

    def test_runs_leave_no_trace_in_the_plan(self):
        # A deadlock storm, runtime link failures and a deadlock planted
        # on a compiled SoA core, on one shared fabric: every table reads
        # the same before and after.
        seed = build_network("mesh:minadaptive-spin-1vc", mesh_side=4)
        topology = seed.topology
        build_network("mesh:minadaptive-spin-2vc", mesh_side=4)
        _fill_lazy_rows(topology)
        plans = list(topology.plans.values())
        assert len(plans) >= 2
        before = [plan_digest(plan) for plan in plans]

        sim = SimulationConfig(warmup_cycles=50, measure_cycles=300,
                               drain_cycles=150, deadlock_abort_cycles=0)
        _, storm = ExperimentSpec(
            design="mesh:minadaptive-spin-1vc", injection_rate=0.45,
            mesh_side=4, tdd=16, sim=sim, engine="fast").run()
        assert storm.events.get("spins", 0) > 0
        network, faulted = ExperimentSpec(
            design="mesh:minadaptive-spin-2vc", injection_rate=0.10,
            mesh_side=4, tdd=16, sim=sim, engine="fast",
            faults="link_down@60:r5-r6,link_down@90:r9-r10").run()
        assert network.topology is topology
        assert faulted.events.get("link_down_events", 0) == 4
        assert faulted.events.get("reroutes", 0) > 0

        planted = build_network("mesh:minadaptive-spin-1vc", mesh_side=4,
                                tdd=8)
        simulator = create_engine("fast")
        simulator.register(planted)
        simulator.run(1)                      # compile the SoA core
        core = simulator._core
        core.r_dirty[:] = bytes(len(core.r_dirty))
        craft_square_deadlock(planted)        # four per-VC events
        at = topology.router_at
        assert [rid for rid, dirty in enumerate(core.r_dirty) if dirty] \
            == sorted([at(1, 1), at(2, 1), at(2, 2), at(1, 2)])
        simulator.run(300)
        assert planted.stats.events.get("spins", 0) > 0

        assert list(topology.plans.values()) == plans
        assert [plan_digest(plan) for plan in plans] == before

    def test_cand_rows_allocate_on_first_use(self):
        network = build_network("mesh:minadaptive-spin-1vc", mesh_side=4)
        simulator = create_engine("fast")
        simulator.register(network)
        simulator.run(1)
        core = simulator._core
        assert core.cand_rows == [None] * 16
        assert not core.outinfo
        craft_square_deadlock(network)
        simulator.run(3)
        touched = [rid for rid, row in enumerate(core.cand_rows)
                   if row is not None]
        at = network.topology.router_at
        assert touched == sorted(
            [at(1, 1), at(2, 1), at(2, 2), at(1, 2)])


class TestTopologyMemoIsBounded:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just(MeshTopology), st.integers(2, 5),
                      st.integers(2, 5)),
            st.tuples(st.just(RingTopology), st.integers(3, 9)),
            st.tuples(st.just(DragonflyTopology), st.integers(1, 2),
                      st.integers(2, 3), st.integers(1, 2))),
        min_size=1, max_size=30))
    def test_memo_stays_at_its_bound(self, shapes):
        bound = shared_topology.cache_info().maxsize
        assert bound is not None and bound <= 16
        for cls, *args in shapes:
            topology = shared_topology(cls, *args)
            assert type(topology) is cls
            assert shared_topology(cls, *args) is topology
            assert shared_topology.cache_info().currsize <= bound
