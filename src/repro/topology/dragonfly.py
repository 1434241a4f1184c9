"""Dragonfly topology (Kim et al., ISCA 2008), as evaluated in the paper.

A dragonfly is parameterized by:

* ``p`` — terminals per router,
* ``a`` — routers per group (fully connected within a group),
* ``h`` — global channels per router.

The number of groups is ``g = a * h + 1`` (the maximum that the global
channels can fully connect), giving ``g * a * p`` terminals.  The paper's
1024-node dragonfly with group size 8 corresponds to the balanced
``p=4, a=8, h=4`` configuration (g = 33, 1056 terminals, conventionally
called "1024-node").

Global channel arrangement is the standard *consecutive* one: enumerating a
group's global channels ``k = i*h + j`` (router local index ``i``, global
port ``j``), channel ``k`` of group ``G`` connects to group
``(G + k + 1) mod g``.

Port layout per router (local index ``i``):

* ports ``0 .. a-2``      — local channels to the other routers of the group
  (port ``q`` connects to the peer with local index ``q`` if ``q < i`` else
  ``q + 1``),
* ports ``a-1 .. a-2+h``  — global channels.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import TopologyError
from repro.topology.base import LinkSpec, Topology


class DragonflyTopology(Topology):
    """Dragonfly with full intra-group connectivity and consecutive globals."""

    name = "dragonfly"

    def __init__(self, p: int, a: int, h: int,
                 local_latency: int = 1, global_latency: int = 3) -> None:
        super().__init__()
        if p < 1 or a < 2 or h < 1:
            raise TopologyError("dragonfly needs p >= 1, a >= 2, h >= 1")
        self.p = p
        self.a = a
        self.h = h
        self.num_groups = a * h + 1
        self.local_latency = local_latency
        self.global_latency = global_latency
        self._links = tuple(self._build_links())

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self.num_groups * self.a

    @property
    def num_nodes(self) -> int:
        return self.num_routers * self.p

    def router_of_node(self, node: int) -> int:
        return node // self.p

    def group_of(self, router: int) -> int:
        """Group a router belongs to."""
        return router // self.a

    def local_index(self, router: int) -> int:
        """Index of a router within its group."""
        return router % self.a

    def router_in_group(self, group: int, local_index: int) -> int:
        """Router id from (group, local index)."""
        return group * self.a + local_index

    def local_port_to(self, router: int, peer: int) -> int:
        """Local port on ``router`` that reaches ``peer`` (same group)."""
        if self.group_of(router) != self.group_of(peer) or router == peer:
            raise TopologyError(f"{router} and {peer} are not distinct group peers")
        peer_index = self.local_index(peer)
        return peer_index if peer_index < self.local_index(router) else peer_index - 1

    def global_channel_target(self, router: int, global_port_index: int) -> int:
        """Group reached by one of this router's global channels.

        Args:
            router: Router id.
            global_port_index: Which global channel, in ``0 .. h-1``.
        """
        group = self.group_of(router)
        channel = self.local_index(router) * self.h + global_port_index
        return (group + channel + 1) % self.num_groups

    def global_gateway(self, src_group: int, dst_group: int) -> Tuple[int, int]:
        """(router, port) in ``src_group`` whose global channel reaches ``dst_group``."""
        if src_group == dst_group:
            raise TopologyError("groups must differ")
        channel = (dst_group - src_group - 1) % self.num_groups
        local = channel // self.h
        port = self.a - 1 + channel % self.h
        return self.router_in_group(src_group, local), port

    def canonical_min_hops(self, src_router: int, dst_router: int) -> int:
        """Hop count of the canonical local-global-local minimal path.

        Note this can exceed the true graph distance (``min_hops``): two
        routers may share a remote neighbour group whose gateway router is
        common to both, giving a 2-hop global-global path.  Routing uses
        the exact BFS distance inherited from :class:`Topology`.
        """
        if src_router == dst_router:
            return 0
        src_group = self.group_of(src_router)
        dst_group = self.group_of(dst_router)
        if src_group == dst_group:
            return 1
        gw_src, _ = self.global_gateway(src_group, dst_group)
        gw_dst, _ = self.global_gateway(dst_group, src_group)
        return (src_router != gw_src) + 1 + (gw_dst != dst_router)

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def links(self) -> Sequence[LinkSpec]:
        return self._links

    def _build_links(self) -> List[LinkSpec]:
        links = []
        # Local channels: complete graph within each group.
        for group in range(self.num_groups):
            for i in range(self.a):
                router = self.router_in_group(group, i)
                for j in range(self.a):
                    if i == j:
                        continue
                    peer = self.router_in_group(group, j)
                    links.append(
                        LinkSpec(router, self.local_port_to(router, peer),
                                 peer, self.local_port_to(peer, router),
                                 self.local_latency)
                    )
        # Global channels.
        for group in range(self.num_groups):
            for i in range(self.a):
                router = self.router_in_group(group, i)
                for j in range(self.h):
                    dst_group = self.global_channel_target(router, j)
                    dst_router, dst_port = self.global_gateway(dst_group, group)
                    links.append(
                        LinkSpec(router, self.a - 1 + j, dst_router, dst_port,
                                 self.global_latency)
                    )
        return links

    def is_global_port(self, port: int) -> bool:
        """Whether a port index is a global channel."""
        return port >= self.a - 1
