"""Unidirectional-friendly ring topology.

The smallest substrate on which routing deadlocks form; used throughout the
test suite to craft deterministic deadlocked rings for the SPIN theorem
bounds (paper Sec. III), and as the base case of the bubble-flow-control
scheme family.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import TopologyError
from repro.topology.base import LinkSpec, Topology

#: Port toward the next router (id + 1 mod n).
CLOCKWISE = 0
#: Port toward the previous router (id - 1 mod n).
COUNTER_CLOCKWISE = 1


class RingTopology(Topology):
    """A bidirectional ring of ``n`` routers, one terminal each."""

    name = "ring"

    def __init__(self, num_routers: int, link_latency: int = 1,
                 bidirectional: bool = True) -> None:
        super().__init__()
        if num_routers < 3:
            raise TopologyError("ring needs at least 3 routers")
        self._num_routers = num_routers
        self.link_latency = link_latency
        self.bidirectional = bidirectional
        self._links = tuple(self._build_links())

    @property
    def num_routers(self) -> int:
        return self._num_routers

    @property
    def num_nodes(self) -> int:
        return self._num_routers

    def router_of_node(self, node: int) -> int:
        return node

    def clockwise_neighbor(self, router: int) -> int:
        """The router reached through the clockwise port."""
        return (router + 1) % self._num_routers

    def counter_clockwise_neighbor(self, router: int) -> int:
        """The router reached through the counter-clockwise port."""
        return (router - 1) % self._num_routers

    def links(self) -> Sequence[LinkSpec]:
        return self._links

    def min_hops(self, src_router: int, dst_router: int) -> int:
        forward = (dst_router - src_router) % self._num_routers
        if not self.bidirectional:
            return forward
        return min(forward, self._num_routers - forward)

    def _build_links(self) -> List[LinkSpec]:
        links = []
        for router in range(self._num_routers):
            nxt = self.clockwise_neighbor(router)
            links.append(LinkSpec(router, CLOCKWISE, nxt,
                                  COUNTER_CLOCKWISE, self.link_latency))
            if self.bidirectional:
                links.append(LinkSpec(nxt, COUNTER_CLOCKWISE, router,
                                      CLOCKWISE, self.link_latency))
        if not self.bidirectional:
            # A unidirectional ring still needs symmetric channel records for
            # validation; model the reverse direction as the same channel.
            reverse = [
                LinkSpec(link.dst, link.dst_port, link.src, link.src_port,
                         link.latency)
                for link in links
            ]
            links.extend(reverse)
        return links
