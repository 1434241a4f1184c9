"""Topology abstraction.

A topology is a set of routers connected by bidirectional channels.  Each
channel occupies one *port* on each endpoint router; the same port index is
used for the inbound and outbound direction of that channel, so
``neighbors(r)[p] == (s, q, lat)`` always implies ``neighbors(s)[q] == (r, p, lat)``.

Terminal nodes (the entities that inject and eject traffic) attach to routers
via dedicated local ports that are managed by the network substrate, not by
the topology.

A topology is **immutable after construction**.  Everything derived from it
— the validation verdict, neighbour maps, hop and productive-port rows, the
terminal placement and the compiled :class:`repro.network.plan.FabricPlan`
per datapath shape — is computed at most once per instance and shared by
every network built on it, so one instance may (and, through
:func:`repro.harness.configs.build_network`, does) serve many simulated
points.  Construct a new topology rather than editing one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import TopologyError

if TYPE_CHECKING:
    import networkx as nx

#: ``[router][target] -> productive ports``; ``None`` where not asked yet.
ProductiveTable = List[Optional[List[Optional[Tuple[int, ...]]]]]


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
        self._validated = False
        self._neighbor_cache: Dict[int, Dict[int, Tuple[int, int, int]]] = {}
        #: Neighbouring routers of each router, for :meth:`_bfs_hops`.
        self._adjacency: Tuple[Tuple[int, ...], ...] = ()
        self._distance_cache: Tuple[Tuple[int, ...], ...] = ()
        #: ``hops_to`` rows of topologies with a closed-form ``min_hops``.
        self._hop_rows: Dict[int, Tuple[int, ...]] = {}
        #: ``[router][target] -> productive ports``: a router's row is
        #: allocated, and each slot filled, on first use.  Equal port tuples
        #: are one object (``_port_tuples``), so a filled table costs a
        #: pointer per pair.
        self._productive_rows: ProductiveTable = []
        self._port_tuples: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: Terminal nodes per router, in node order (built on first use).
        self._router_nodes: Tuple[Tuple[int, ...], ...] = ()
        #: Compiled fabric plans by datapath shape; filled and read by
        #: :meth:`repro.network.plan.FabricPlan.of` only.
        self.plans: Dict[Tuple[int, int], object] = {}

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
    def links(self) -> Sequence[LinkSpec]:
        """All directed links (both directions of every channel)."""

    @abstractmethod
    def router_of_node(self, node: int) -> int:
        """Router that terminal ``node`` attaches to."""

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def nodes_of_router(self, router: int) -> Tuple[int, ...]:
        """Terminal nodes attached to ``router``, ascending.

        A node's position in the tuple is its local index at the router
        (the network substrate numbers injection/ejection ports by it).
        """
        if not self._router_nodes:
            placement: List[List[int]] = [[] for _ in range(self.num_routers)]
            for node in range(self.num_nodes):
                placement[self.router_of_node(node)].append(node)
            self._router_nodes = tuple(map(tuple, placement))
        return self._router_nodes[router]

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
        return self._distance_table()[src_router][dst_router]

    def hops_to(self, dst_router: int) -> Sequence[int]:
        """``min_hops(r, dst_router)`` for every router ``r``, as one row.

        Channels are bidirectional (:meth:`validate` enforces it), so hop
        distance is symmetric and the cached distance table's row for
        ``dst_router`` is this column; nothing new is stored.  Topologies
        that compute ``min_hops`` in closed form have no table, and their
        rows are built one destination at a time.
        """
        if type(self).min_hops is Topology.min_hops:
            return self._distance_table()[dst_router]
        row = self._hop_rows.get(dst_router)
        if row is None:
            min_hops = self.min_hops
            row = self._hop_rows[dst_router] = tuple([
                min_hops(router, dst_router)
                for router in range(self.num_routers)])
        return row

    def productive_table(self) -> ProductiveTable:
        """The ``[router][target]`` table behind :meth:`productive_ports`.

        For the routing layer's per-decision lookup only: a ``None`` row or
        slot means "not asked yet — call :meth:`productive_ports`", which is
        the one place that fills it.
        """
        if not self._productive_rows:
            self._productive_rows = [None] * self.num_routers
        return self._productive_rows

    def productive_ports(self, router: int, target: int) -> Tuple[int, ...]:
        """Output ports of ``router`` that reduce the hop distance to
        ``target``, ascending (a pure function of the topology, computed
        once per pair).
        """
        table = self.productive_table()
        row = table[router]
        if row is None:
            row = table[router] = [None] * self.num_routers
        ports = row[target]
        if ports is None:
            hops = self.hops_to(target)
            here = hops[router]
            ports = tuple([
                port
                for port, (neighbor, _, _) in sorted(
                    self.neighbors(router).items())
                if hops[neighbor] < here
            ])
            ports = row[target] = self._port_tuples.setdefault(ports, ports)
        return ports

    def _distance_table(self) -> Tuple[Tuple[int, ...], ...]:
        """The all-pairs BFS table, computed once."""
        if not self._distance_cache:
            self._distance_cache = self._all_pairs_hops()
        return self._distance_cache

    def _all_pairs_hops(self) -> Tuple[Tuple[int, ...], ...]:
        table = []
        for src in range(self.num_routers):
            row = self._bfs_hops(src)
            if min(row) < 0:
                raise TopologyError(f"router {src} cannot reach every router")
            table.append(tuple(row))
        return tuple(table)

    def _bfs_hops(self, source: int) -> List[int]:
        """Hop count from ``source`` to every router over outbound links
        (``-1`` where unreachable)."""
        adjacency = self._adjacency
        if not adjacency:
            adjacency = self._adjacency = tuple(
                tuple(peer for peer, _, _ in self.neighbors(router).values())
                for router in range(self.num_routers))
        hops = [-1] * len(adjacency)
        hops[source] = 0
        unseen = len(adjacency) - 1
        frontier = [source]
        depth = 0
        # Stop once every router is reached: on a low-diameter fabric the
        # last frontier holds most routers and would find nothing new.
        while frontier and unseen:
            depth += 1
            reached = []
            for router in frontier:
                for peer in adjacency[router]:
                    if hops[peer] < 0:
                        hops[peer] = depth
                        reached.append(peer)
            unseen -= len(reached)
            frontier = reached
        return hops

    def to_networkx(self) -> nx.DiGraph:
        """Directed router graph (one edge per link direction).

        Imports :mod:`networkx` when called; nothing on the simulation
        path calls it.
        """
        import networkx as nx

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
        connected.  A topology never changes, so a pass is remembered and
        later calls return at once.  With every link's reverse present, one
        BFS from router 0 reaching every router proves strong connectivity.
        The same call fills the BFS distance table of topologies that route
        by it.
        """
        if self._validated:
            return
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
        if min(self._bfs_hops(0)) < 0:
            raise TopologyError("router graph is not strongly connected")
        for node in range(self.num_nodes):
            router = self.router_of_node(node)
            if not 0 <= router < self.num_routers:
                raise TopologyError(f"node {node} attached to bad router {router}")
        if type(self).min_hops is Topology.min_hops:
            self._distance_table()
        self._validated = True
