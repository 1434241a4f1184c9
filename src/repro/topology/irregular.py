"""Irregular topologies.

The paper positions SPIN as the natural deadlock-freedom framework for
irregular networks: random datacenter graphs (Jellyfish), meshes with faulty
or power-gated links, and accelerator fabrics.  This module wraps an
arbitrary connected :mod:`networkx` graph as a topology and provides a
``faulty_mesh`` helper that knocks links out of a 2-D mesh while preserving
connectivity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.sim.rng import DeterministicRng
from repro.topology.base import LinkSpec, Topology
from repro.topology.mesh import MeshTopology

if TYPE_CHECKING:
    import networkx as nx


class IrregularTopology(Topology):
    """Topology defined by an arbitrary connected undirected graph.

    Ports are assigned per-router in ascending neighbor order, so the
    construction is deterministic for a given graph.

    Args:
        graph: Connected undirected graph whose nodes are ``0..n-1``.
        link_latency: Latency of every channel, or a dict mapping the
            undirected edge ``(min(u, v), max(u, v))`` to a latency.
    """

    name = "irregular"

    def __init__(self, graph: nx.Graph, link_latency=1) -> None:
        import networkx as nx

        super().__init__()
        if graph.is_directed():
            raise TopologyError("graph must be undirected")
        if graph.is_multigraph():
            raise TopologyError("graph must not be a multigraph")
        loop = next(nx.selfloop_edges(graph), None)
        if loop is not None:
            raise TopologyError(f"graph has a self-loop at {loop[0]}")
        nodes = sorted(graph.nodes)
        if nodes != list(range(len(nodes))):
            raise TopologyError("graph nodes must be 0..n-1")
        if len(nodes) < 2:
            raise TopologyError("need at least 2 routers")
        if not nx.is_connected(graph):
            raise TopologyError("graph must be connected")
        self.graph = graph
        self._latency = link_latency
        self._port_of: Dict[Tuple[int, int], int] = {}
        for router in nodes:
            for port, peer in enumerate(sorted(graph.neighbors(router))):
                self._port_of[(router, peer)] = port
        self._links = tuple(self._build_links())

    def _edge_latency(self, u: int, v: int) -> int:
        if isinstance(self._latency, dict):
            return self._latency[(min(u, v), max(u, v))]
        return self._latency

    @property
    def num_routers(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_nodes(self) -> int:
        return self.num_routers

    def router_of_node(self, node: int) -> int:
        return node

    def port_toward(self, router: int, peer: int) -> int:
        """Port on ``router`` whose channel reaches adjacent ``peer``."""
        try:
            return self._port_of[(router, peer)]
        except KeyError:
            raise TopologyError(f"{router} and {peer} are not adjacent") from None

    def links(self) -> Sequence[LinkSpec]:
        return self._links

    def _build_links(self) -> List[LinkSpec]:
        links = []
        for u, v in self.graph.edges:
            latency = self._edge_latency(u, v)
            links.append(LinkSpec(u, self._port_of[(u, v)],
                                  v, self._port_of[(v, u)], latency))
            links.append(LinkSpec(v, self._port_of[(v, u)],
                                  u, self._port_of[(u, v)], latency))
        return links


def faulty_mesh(cols: int, rows: int, num_failed_links: int,
                rng: Optional[DeterministicRng] = None,
                protected: Iterable[Tuple[int, int]] = ()) -> IrregularTopology:
    """A 2-D mesh with random link failures, guaranteed connected.

    Models the power-gated / faulty on-chip networks (Static Bubble's target
    domain) on which SPIN claims applicability without reconfiguration.

    Args:
        cols: Mesh columns.
        rows: Mesh rows.
        num_failed_links: How many bidirectional channels to remove.
        rng: Randomness source (defaults to seed 0).
        protected: Undirected edges ``(u, v)`` that must not fail.

    Returns:
        The degraded mesh as an :class:`IrregularTopology`.

    Raises:
        TopologyError: If that many links cannot fail without disconnecting
            the network.
    """
    import networkx as nx

    rng = rng or DeterministicRng(0)
    mesh = MeshTopology(cols, rows)
    graph = nx.Graph()
    graph.add_nodes_from(range(mesh.num_routers))
    for link in mesh.links():
        graph.add_edge(link.src, link.dst)
    protected_set = {(min(u, v), max(u, v)) for u, v in protected}

    removed = 0
    candidates = [
        (min(u, v), max(u, v))
        for u, v in graph.edges
        if (min(u, v), max(u, v)) not in protected_set
    ]
    rng.shuffle(candidates)
    for edge in candidates:
        if removed == num_failed_links:
            break
        graph.remove_edge(*edge)
        if nx.is_connected(graph):
            removed += 1
        else:
            graph.add_edge(*edge)
    if removed < num_failed_links:
        raise TopologyError(
            f"could only fail {removed} of {num_failed_links} links "
            "without disconnecting the mesh"
        )
    return IrregularTopology(graph)


def random_regular_topology(num_routers: int, degree: int,
                            seed: int = 0) -> IrregularTopology:
    """A Jellyfish-style random regular graph topology.

    Args:
        num_routers: Number of routers (``num_routers * degree`` must be even).
        degree: Channels per router.
        seed: Seed for the graph sampler; retried until connected.
    """
    import networkx as nx

    if not 0 <= degree < num_routers:
        raise TopologyError(
            f"degree {degree} must be in 0..{num_routers - 1} "
            f"for {num_routers} routers")
    if num_routers * degree % 2:
        raise TopologyError(
            f"num_routers * degree = {num_routers * degree} must be even")
    for attempt in range(100):
        graph = nx.random_regular_graph(degree, num_routers, seed=seed + attempt)
        if nx.is_connected(graph):
            return IrregularTopology(nx.convert_node_labels_to_integers(graph))
    raise TopologyError("failed to sample a connected random regular graph")
