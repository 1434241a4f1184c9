"""Unit tests for irregular topologies (faulty mesh, random graphs)."""

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.sim.rng import DeterministicRng
from repro.topology.irregular import (
    IrregularTopology,
    faulty_mesh,
    random_regular_topology,
)


def _graph(kind, edges):
    graph = kind()
    graph.add_nodes_from(range(3))
    graph.add_edges_from(edges)
    return graph


MALFORMED = {
    "directed": (lambda: IrregularTopology(
        _graph(nx.DiGraph, [(0, 1), (1, 2), (2, 0)])), "undirected"),
    "multigraph": (lambda: IrregularTopology(
        _graph(nx.MultiGraph, [(0, 1), (0, 1), (1, 2)])), "multigraph"),
    "self_loop": (lambda: IrregularTopology(
        _graph(nx.Graph, [(0, 0), (0, 1), (1, 2)])), "self-loop at 0"),
    "odd_degree_sum": (lambda: random_regular_topology(5, 3), "must be even"),
    "degree_too_high": (lambda: random_regular_topology(4, 4), "degree 4"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_topology_error(case):
    build, message = MALFORMED[case]
    with pytest.raises(TopologyError, match=message):
        build()


class TestIrregularTopology:
    def test_wraps_arbitrary_graph(self):
        graph = nx.cycle_graph(5)
        topo = IrregularTopology(graph)
        topo.validate()
        assert topo.num_routers == 5
        assert all(topo.radix(r) == 2 for r in range(5))

    def test_port_assignment_deterministic(self):
        graph = nx.path_graph(4)
        a = IrregularTopology(graph)
        b = IrregularTopology(nx.path_graph(4))
        assert [a.port_toward(1, 0), a.port_toward(1, 2)] == [
            b.port_toward(1, 0), b.port_toward(1, 2)]

    def test_port_toward_non_adjacent_raises(self):
        topo = IrregularTopology(nx.path_graph(4))
        with pytest.raises(TopologyError):
            topo.port_toward(0, 3)

    def test_rejects_disconnected(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        with pytest.raises(TopologyError):
            IrregularTopology(graph)

    def test_rejects_bad_labels(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(TopologyError):
            IrregularTopology(graph)

    def test_per_edge_latency(self):
        graph = nx.path_graph(3)
        topo = IrregularTopology(graph, link_latency={(0, 1): 2, (1, 2): 5})
        latencies = {(l.src, l.dst): l.latency for l in topo.links()}
        assert latencies[(0, 1)] == 2
        assert latencies[(2, 1)] == 5


class TestFaultyMesh:
    def test_removes_requested_links(self):
        base_links = 2 * 3 * 4 + 2 * 4 * 3
        topo = faulty_mesh(4, 4, num_failed_links=5,
                           rng=DeterministicRng(3))
        assert len(topo.links()) == base_links - 2 * 5
        topo.validate()

    def test_stays_connected(self):
        topo = faulty_mesh(4, 4, num_failed_links=8, rng=DeterministicRng(1))
        assert nx.is_connected(topo.graph)

    def test_protected_edges_survive(self):
        protected = [(0, 1)]
        topo = faulty_mesh(4, 4, num_failed_links=6,
                           rng=DeterministicRng(5), protected=protected)
        assert topo.graph.has_edge(0, 1)

    def test_impossible_failure_count_raises(self):
        with pytest.raises(TopologyError):
            faulty_mesh(3, 3, num_failed_links=100)


class TestRandomRegular:
    def test_connected_regular(self):
        topo = random_regular_topology(12, 3, seed=2)
        topo.validate()
        assert all(topo.radix(r) == 3 for r in range(12))
