"""Unit tests for up*/down* routing on irregular topologies."""

import networkx as nx
import pytest

from repro.config import NetworkConfig
from repro.errors import ConfigurationError
from repro.network.network import Network
from repro.network.packet import Packet
from repro.routing.table import UpDownRouting
from repro.sim.rng import DeterministicRng
from repro.topology.irregular import IrregularTopology, faulty_mesh
from repro.topology.ring import RingTopology


def make_network(topology=None, seed=1):
    topology = topology or faulty_mesh(4, 4, num_failed_links=4,
                                       rng=DeterministicRng(7))
    return Network(topology, NetworkConfig(vcs_per_vnet=2),
                   UpDownRouting(seed), seed=seed)


def packet_to(dst, src=0):
    packet = Packet(src_node=src, dst_node=dst, src_router=src,
                    dst_router=dst, length=1)
    return packet


def walk(network, src, dst, chooser=min, limit=100):
    routing = network.routing
    packet = packet_to(dst, src)
    routing.on_inject(packet, 0)
    here = src
    path = [here]
    for _ in range(limit):
        if here == dst:
            return path
        router = network.routers[here]
        ports = routing.candidate_outports(router, packet)
        assert ports, f"stuck at {here} toward {dst}"
        port = chooser(ports)
        routing.on_hop(packet, router, port)
        here = router.out_neighbors[port][0].id
        path.append(here)
    raise AssertionError("walk did not terminate")


class TestLegality:
    def test_every_pair_routable(self):
        network = make_network()
        for src in range(network.topology.num_routers):
            for dst in range(network.topology.num_routers):
                if src != dst:
                    walk(network, src, dst)

    def test_no_up_after_down(self):
        network = make_network()
        routing = network.routing
        for src in range(network.topology.num_routers):
            for dst in range(network.topology.num_routers):
                if src == dst:
                    continue
                path = walk(network, src, dst, chooser=max)
                went_down = False
                for a, b in zip(path, path[1:]):
                    port = None
                    for p, (neighbor, _) in network.routers[a].out_neighbors.items():
                        if neighbor.id == b:
                            port = p
                            break
                    is_up = routing._is_up_hop[(a, port)]
                    if is_up:
                        assert not went_down, (src, dst, path)
                    else:
                        went_down = True

    def test_paths_are_shortest_legal(self):
        network = make_network()
        routing = network.routing
        for src in range(network.topology.num_routers):
            for dst in range(network.topology.num_routers):
                if src == dst:
                    continue
                path = walk(network, src, dst)
                assert len(path) - 1 == routing.legal_path_length(src, dst)

    def test_legal_paths_at_least_graph_distance(self):
        network = make_network()
        routing = network.routing
        topo = network.topology
        stretched = 0
        for src in range(topo.num_routers):
            for dst in range(topo.num_routers):
                if src == dst:
                    continue
                legal = routing.legal_path_length(src, dst)
                assert legal >= topo.min_hops(src, dst)
                if legal > topo.min_hops(src, dst):
                    stretched += 1
        # The restriction genuinely costs something on a degraded mesh —
        # the stretch SPIN's unrestricted routing avoids.
        assert stretched > 0


class TestCdg:
    def test_updown_walks_never_cycle_channels(self):
        # Structural guarantee: up*/down* orients channels acyclically.
        # Check the up-edge orientation is a DAG.
        network = make_network()
        routing = network.routing
        dag = nx.DiGraph()
        for (router, port), is_up in routing._is_up_hop.items():
            neighbor, _ = network.routers[router].out_neighbors[port]
            if is_up:
                dag.add_edge(router, neighbor.id)
        assert nx.is_directed_acyclic_graph(dag)


class TestOnArbitraryGraphs:
    @pytest.mark.parametrize("graph_builder", [
        lambda: nx.cycle_graph(7),
        lambda: nx.star_graph(5),
        lambda: nx.barbell_graph(4, 2),
    ])
    def test_works_on_misc_graphs(self, graph_builder):
        graph = nx.convert_node_labels_to_integers(graph_builder())
        topology = IrregularTopology(graph)
        network = make_network(topology)
        for src in range(topology.num_routers):
            for dst in range(topology.num_routers):
                if src != dst:
                    walk(network, src, dst)


@pytest.mark.parametrize("root", [4, -1])
def test_root_outside_the_fabric_is_rejected(root):
    with pytest.raises(ConfigurationError, match=f"root {root}"):
        Network(RingTopology(4), NetworkConfig(vcs_per_vnet=2),
                UpDownRouting(1, root=root), seed=1)
