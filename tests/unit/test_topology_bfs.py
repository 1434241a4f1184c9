"""The topology's own BFS against networkx, and validation's connectivity check.

The simulator computes hop tables, connectivity and up*/down* root depth
with :meth:`Topology._bfs_hops`; networkx is the independent oracle here.
"""

import networkx as nx
import pytest

from repro.config import NetworkConfig
from repro.errors import TopologyError
from repro.network.network import Network
from repro.routing.table import UpDownRouting
from repro.sim.rng import DeterministicRng
from repro.topology import (
    DragonflyTopology,
    FatTreeTopology,
    FlattenedButterflyTopology,
    LinkSpec,
    MeshTopology,
    RingTopology,
    Topology,
    TorusTopology,
    faulty_mesh,
    random_regular_topology,
)

TOPOLOGIES = {
    "mesh": lambda: MeshTopology(5, 3),
    "torus": lambda: TorusTopology(4, 3),
    "ring": lambda: RingTopology(7),
    "dragonfly": lambda: DragonflyTopology(2, 4, 2),
    "fbfly": lambda: FlattenedButterflyTopology(3),
    "fattree": lambda: FatTreeTopology(4, 2),
    "faulty_mesh": lambda: faulty_mesh(5, 5, 8, rng=DeterministicRng(4)),
    "random_regular": lambda: random_regular_topology(14, 3, seed=5),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_all_pairs_hops_match_networkx(name):
    topology = TOPOLOGIES[name]()
    expected = dict(nx.all_pairs_shortest_path_length(topology.to_networkx()))
    table = topology._all_pairs_hops()
    for src, row in enumerate(table):
        assert row == tuple(expected[src][dst]
                            for dst in range(topology.num_routers))


@pytest.mark.parametrize("root", [0, 5, 24])
def test_updown_root_depth_matches_networkx(root):
    topology = faulty_mesh(5, 5, 8, rng=DeterministicRng(4))
    network = Network(topology, NetworkConfig(vcs_per_vnet=2),
                      UpDownRouting(1, root=root), seed=1)
    depth = nx.single_source_shortest_path_length(topology.graph, root)
    for (router, port), up in network.routing._is_up_hop.items():
        neighbor = topology.neighbors(router)[port][0]
        assert up == ((depth[neighbor], neighbor) < (depth[router], router))
    assert topology._bfs_hops(root) == [depth[r]
                                        for r in range(topology.num_routers)]


class _TwoPairs(Topology):
    """Routers 0-1 and 2-3 joined pairwise: symmetric, not connected."""

    @property
    def num_routers(self):
        return 4

    @property
    def num_nodes(self):
        return 4

    def links(self):
        return [LinkSpec(0, 0, 1, 0), LinkSpec(1, 0, 0, 0),
                LinkSpec(2, 0, 3, 0), LinkSpec(3, 0, 2, 0)]

    def router_of_node(self, node):
        return node


def test_validate_rejects_two_components():
    with pytest.raises(TopologyError, match="not strongly connected"):
        _TwoPairs().validate()
