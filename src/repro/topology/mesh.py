"""2-D mesh topology.

Routers are laid out row-major: router id ``r = y * cols + x``.  Ports use
the fixed compass indices below so routing algorithms can reason in
directions; edge routers simply lack the ports that would leave the mesh.
One terminal node attaches to each router (node id == router id), matching
the paper's 8x8 64-core mesh.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.topology.base import LinkSpec, Topology

#: Compass port indices shared by mesh and torus.
NORTH, EAST, SOUTH, WEST = 0, 1, 2, 3

#: All compass directions in port-index order.
DIRECTIONS = (NORTH, EAST, SOUTH, WEST)

#: Printable names for compass ports.
DIRECTION_NAMES = {NORTH: "N", EAST: "E", SOUTH: "S", WEST: "W"}

#: The port a flit arrives on after leaving through a given compass port.
OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}

#: (dx, dy) displacement of each compass direction.  North decreases y.
DELTA = {NORTH: (0, -1), EAST: (1, 0), SOUTH: (0, 1), WEST: (-1, 0)}


class MeshTopology(Topology):
    """A ``cols x rows`` 2-D mesh with one terminal per router."""

    name = "mesh"

    def __init__(self, cols: int, rows: int, link_latency: int = 1) -> None:
        super().__init__()
        if cols < 2 or rows < 2:
            raise TopologyError("mesh needs at least 2x2 routers")
        self.cols = cols
        self.rows = rows
        self.link_latency = link_latency
        self._links = tuple(self._build_links())

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def coordinates(self, router: int) -> Tuple[int, int]:
        """(x, y) position of a router."""
        return router % self.cols, router // self.cols

    def router_at(self, x: int, y: int) -> int:
        """Router id at position (x, y)."""
        if not (0 <= x < self.cols and 0 <= y < self.rows):
            raise TopologyError(f"({x}, {y}) outside {self.cols}x{self.rows} mesh")
        return y * self.cols + x

    def neighbor_in(self, router: int, direction: int) -> Optional[int]:
        """Router one hop away in a compass direction, or None at an edge."""
        x, y = self.coordinates(router)
        dx, dy = DELTA[direction]
        nx_, ny = x + dx, y + dy
        if 0 <= nx_ < self.cols and 0 <= ny < self.rows:
            return self.router_at(nx_, ny)
        return None

    def directions_toward(self, src_router: int, dst_router: int) -> List[int]:
        """Compass directions that reduce distance to the destination."""
        sx, sy = self.coordinates(src_router)
        dx, dy = self.coordinates(dst_router)
        productive = []
        if dy < sy:
            productive.append(NORTH)
        if dx > sx:
            productive.append(EAST)
        if dy > sy:
            productive.append(SOUTH)
        if dx < sx:
            productive.append(WEST)
        return productive

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------
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
        return abs(sx - dx) + abs(sy - dy)

    def _build_links(self) -> List[LinkSpec]:
        links = []
        for router in range(self.num_routers):
            for direction in DIRECTIONS:
                neighbor = self.neighbor_in(router, direction)
                if neighbor is not None:
                    links.append(
                        LinkSpec(router, direction, neighbor,
                                 OPPOSITE[direction], self.link_latency)
                    )
        return links
