"""2-D flattened butterfly (Kim et al., MICRO 2007).

A ``k x k`` grid of routers with *full* connectivity along each row and
each column: any destination is at most 2 hops away (one row hop + one
column hop).  High-radix, path-diverse, and — like the dragonfly — a
topology whose deadlock-avoidance schemes conventionally burn VCs on
dateline/ordering disciplines that SPIN renders unnecessary.

Port layout per router at (x, y):

* ports ``0 .. k-2``        — row peers (peer column ``c``: port ``c`` if
  ``c < x`` else ``c - 1``),
* ports ``k-1 .. 2k-3``     — column peers (same rule on rows, offset by
  ``k-1``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import TopologyError
from repro.topology.base import LinkSpec, Topology


class FlattenedButterflyTopology(Topology):
    """k x k flattened butterfly with ``concentration`` terminals/router."""

    name = "fbfly"

    def __init__(self, k: int, concentration: int = 1,
                 link_latency: int = 1) -> None:
        super().__init__()
        if k < 2:
            raise TopologyError("flattened butterfly needs k >= 2")
        if concentration < 1:
            raise TopologyError("concentration must be >= 1")
        self.k = k
        self.concentration = concentration
        self.link_latency = link_latency
        self._links = tuple(self._build_links())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self.k * self.k

    @property
    def num_nodes(self) -> int:
        return self.num_routers * self.concentration

    def router_of_node(self, node: int) -> int:
        return node // self.concentration

    def coordinates(self, router: int) -> Tuple[int, int]:
        """(x, y) position of a router."""
        return router % self.k, router // self.k

    def router_at(self, x: int, y: int) -> int:
        """Router id at (x, y)."""
        return y * self.k + x

    def row_port_to(self, router: int, peer_x: int) -> int:
        """Port on ``router`` reaching the row peer in column ``peer_x``."""
        x, _ = self.coordinates(router)
        if peer_x == x:
            raise TopologyError("no self port")
        return peer_x if peer_x < x else peer_x - 1

    def column_port_to(self, router: int, peer_y: int) -> int:
        """Port on ``router`` reaching the column peer in row ``peer_y``."""
        _, y = self.coordinates(router)
        if peer_y == y:
            raise TopologyError("no self port")
        offset = peer_y if peer_y < y else peer_y - 1
        return (self.k - 1) + offset

    def min_hops(self, src_router: int, dst_router: int) -> int:
        sx, sy = self.coordinates(src_router)
        dx, dy = self.coordinates(dst_router)
        return (sx != dx) + (sy != dy)

    def links(self) -> Sequence[LinkSpec]:
        return self._links

    def _build_links(self) -> List[LinkSpec]:
        links = []
        for router in range(self.num_routers):
            x, y = self.coordinates(router)
            for peer_x in range(self.k):
                if peer_x == x:
                    continue
                peer = self.router_at(peer_x, y)
                links.append(LinkSpec(
                    router, self.row_port_to(router, peer_x),
                    peer, self.row_port_to(peer, x), self.link_latency))
            for peer_y in range(self.k):
                if peer_y == y:
                    continue
                peer = self.router_at(x, peer_y)
                links.append(LinkSpec(
                    router, self.column_port_to(router, peer_y),
                    peer, self.column_port_to(peer, y), self.link_latency))
        return links
