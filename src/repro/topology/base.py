"""Topology abstraction.

A topology is a set of routers connected by bidirectional channels.  Each
channel occupies one *port* on each endpoint router; the same port index is
used for the inbound and outbound direction of that channel, so
``neighbors(r)[p] == (s, q, lat)`` always implies ``neighbors(s)[q] == (r, p, lat)``.

Terminal nodes (the entities that inject and eject traffic) attach to routers
via dedicated local ports that are managed by the network substrate, not by
the topology.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import networkx as nx

from repro.errors import TopologyError


@dataclass(frozen=True)
class LinkSpec:
    """One direction of a channel between two router ports.

    Attributes:
        src: Source router id.
        src_port: Port index on the source router.
        dst: Destination router id.
        dst_port: Port index on the destination router.
        latency: Link traversal latency in cycles.
    """

    src: int
    src_port: int
    dst: int
    dst_port: int
    latency: int = 1


class Topology(ABC):
    """Base class for all topologies."""

    #: Human-readable name, used in reports.
    name: str = "topology"

    def __init__(self) -> None:
        self._neighbor_cache: Dict[int, Dict[int, Tuple[int, int, int]]] = {}
        self._distance_cache: List[List[int]] = []
        #: ``hops_to`` rows of topologies with a closed-form ``min_hops``.
        self._hop_rows: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def num_routers(self) -> int:
        """Number of routers."""

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of terminal nodes."""

    @abstractmethod
    def links(self) -> List[LinkSpec]:
        """All directed links (both directions of every channel)."""

    @abstractmethod
    def router_of_node(self, node: int) -> int:
        """Router that terminal ``node`` attaches to."""

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def nodes_of_router(self, router: int) -> List[int]:
        """Terminal nodes attached to ``router``."""
        return [
            node
            for node in range(self.num_nodes)
            if self.router_of_node(node) == router
        ]

    def neighbors(self, router: int) -> Dict[int, Tuple[int, int, int]]:
        """Outgoing channels of a router.

        Returns:
            Mapping ``port -> (neighbor_router, neighbor_port, latency)``.
        """
        if not self._neighbor_cache:
            cache: Dict[int, Dict[int, Tuple[int, int, int]]] = {
                r: {} for r in range(self.num_routers)
            }
            for link in self.links():
                if link.src_port in cache[link.src]:
                    raise TopologyError(
                        f"router {link.src} port {link.src_port} used twice"
                    )
                cache[link.src][link.src_port] = (link.dst, link.dst_port, link.latency)
            self._neighbor_cache = cache
        return self._neighbor_cache[router]

    def radix(self, router: int) -> int:
        """Number of network channels at ``router`` (excluding local ports)."""
        return len(self.neighbors(router))

    def max_port_index(self, router: int) -> int:
        """Highest port index in use at ``router`` (ports may be sparse)."""
        ports = self.neighbors(router)
        return max(ports) if ports else -1

    def min_hops(self, src_router: int, dst_router: int) -> int:
        """Minimal hop count between two routers (BFS, cached)."""
        if not self._distance_cache:
            self._distance_cache = self._all_pairs_hops()
        return self._distance_cache[src_router][dst_router]

    def hops_to(self, dst_router: int) -> Sequence[int]:
        """``min_hops(r, dst_router)`` for every router ``r``, as one row.

        Channels are bidirectional (:meth:`validate` enforces it), so hop
        distance is symmetric and the cached distance table's row for
        ``dst_router`` is this column; nothing new is stored.  Topologies
        that compute ``min_hops`` in closed form have no table, and their
        rows are built one destination at a time.
        """
        if type(self).min_hops is Topology.min_hops:
            if not self._distance_cache:
                self._distance_cache = self._all_pairs_hops()
            return self._distance_cache[dst_router]
        row = self._hop_rows.get(dst_router)
        if row is None:
            min_hops = self.min_hops
            row = self._hop_rows[dst_router] = [
                min_hops(router, dst_router)
                for router in range(self.num_routers)]
        return row

    def _all_pairs_hops(self) -> List[List[int]]:
        graph = self.to_networkx()
        num = self.num_routers
        table = [[-1] * num for _ in range(num)]
        for src, lengths in nx.all_pairs_shortest_path_length(graph):
            row = table[src]
            for dst, hops in lengths.items():
                row[dst] = hops
        for src in range(num):
            if min(table[src]) < 0:
                raise TopologyError(f"router {src} cannot reach every router")
        return table

    def to_networkx(self) -> nx.DiGraph:
        """Directed router graph (one edge per link direction)."""
        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.num_routers))
        for link in self.links():
            graph.add_edge(link.src, link.dst, src_port=link.src_port,
                           dst_port=link.dst_port, latency=link.latency)
        return graph

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        Verifies that every link has a reverse using the same port pair,
        ports are not double-booked, and the router graph is strongly
        connected.
        """
        seen = {}
        for link in self.links():
            key = (link.src, link.src_port)
            if key in seen:
                raise TopologyError(f"duplicate outbound port {key}")
            seen[key] = link
        for link in self.links():
            reverse = seen.get((link.dst, link.dst_port))
            if (
                reverse is None
                or reverse.dst != link.src
                or reverse.dst_port != link.src_port
                or reverse.latency != link.latency
            ):
                raise TopologyError(
                    f"link {link} has no symmetric reverse channel"
                )
        if not nx.is_strongly_connected(self.to_networkx()):
            raise TopologyError("router graph is not strongly connected")
        for node in range(self.num_nodes):
            router = self.router_of_node(node)
            if not 0 <= router < self.num_routers:
                raise TopologyError(f"node {node} attached to bad router {router}")
