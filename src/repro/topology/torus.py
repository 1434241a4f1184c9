"""2-D torus topology: a mesh with wrap-around channels.

Shares the compass port convention of :mod:`repro.topology.mesh`.  Included
as a substrate for the flow-control (bubble) family of deadlock-freedom
schemes the paper compares against conceptually (Table I), and for tests of
the channel-dependency-graph analysis (a torus ring has an inherently cyclic
CDG even under dimension-order routing).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import TopologyError
from repro.topology.base import LinkSpec, Topology
from repro.topology.mesh import DELTA, DIRECTIONS, OPPOSITE


class TorusTopology(Topology):
    """A ``cols x rows`` 2-D torus with one terminal per router."""

    name = "torus"

    def __init__(self, cols: int, rows: int, link_latency: int = 1) -> None:
        super().__init__()
        if cols < 3 or rows < 3:
            # A width-2 torus would create duplicate channels between the
            # same router pair on the same ports.
            raise TopologyError("torus needs at least 3x3 routers")
        self.cols = cols
        self.rows = rows
        self.link_latency = link_latency
        self._links = tuple(self._build_links())

    def coordinates(self, router: int) -> Tuple[int, int]:
        """(x, y) position of a router."""
        return router % self.cols, router // self.cols

    def router_at(self, x: int, y: int) -> int:
        """Router id at (x, y), coordinates taken modulo the torus size."""
        return (y % self.rows) * self.cols + (x % self.cols)

    def neighbor_in(self, router: int, direction: int) -> int:
        """Router one hop away in a compass direction (always exists)."""
        x, y = self.coordinates(router)
        dx, dy = DELTA[direction]
        return self.router_at(x + dx, y + dy)

    def directions_toward(self, src_router: int, dst_router: int) -> List[int]:
        """Compass directions on a minimal path, honouring wrap-around."""
        from repro.topology.mesh import EAST, NORTH, SOUTH, WEST

        sx, sy = self.coordinates(src_router)
        dx, dy = self.coordinates(dst_router)
        productive = []
        col_delta = (dx - sx) % self.cols
        if col_delta:
            if col_delta < self.cols - col_delta:
                productive.append(EAST)
            elif col_delta > self.cols - col_delta:
                productive.append(WEST)
            else:
                productive.extend([EAST, WEST])
        row_delta = (dy - sy) % self.rows
        if row_delta:
            if row_delta < self.rows - row_delta:
                productive.append(SOUTH)
            elif row_delta > self.rows - row_delta:
                productive.append(NORTH)
            else:
                productive.extend([SOUTH, NORTH])
        return productive

    @property
    def num_routers(self) -> int:
        return self.cols * self.rows

    @property
    def num_nodes(self) -> int:
        return self.num_routers

    def router_of_node(self, node: int) -> int:
        return node

    def links(self) -> Sequence[LinkSpec]:
        return self._links

    def min_hops(self, src_router: int, dst_router: int) -> int:
        sx, sy = self.coordinates(src_router)
        dx, dy = self.coordinates(dst_router)
        col_delta = abs(sx - dx)
        row_delta = abs(sy - dy)
        return min(col_delta, self.cols - col_delta) + min(
            row_delta, self.rows - row_delta
        )

    def _build_links(self) -> List[LinkSpec]:
        links = []
        for router in range(self.num_routers):
            for direction in DIRECTIONS:
                neighbor = self.neighbor_in(router, direction)
                links.append(
                    LinkSpec(router, direction, neighbor,
                             OPPOSITE[direction], self.link_latency)
                )
        return links
