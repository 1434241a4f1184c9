"""Two-level fat tree (leaf/spine Clos), the datacenter staple.

``num_leaves`` leaf switches each connect to every one of ``num_spines``
spine switches; terminals attach only to leaves.  Any leaf-to-leaf route
is leaf -> (any spine) -> leaf, giving ``num_spines``-way path diversity
that fully adaptive routing (enabled deadlock-free by SPIN) can exploit,
while up*/down* routing is naturally minimal here (the topology is its own
spanning-tree closure — a useful contrast case in the tests).

Router ids: leaves ``0 .. L-1``, spines ``L .. L+S-1``.
Ports: leaf port ``s`` reaches spine ``s``; spine port ``l`` reaches leaf
``l``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import TopologyError
from repro.topology.base import LinkSpec, Topology


class FatTreeTopology(Topology):
    """Leaf-spine fat tree with ``terminals_per_leaf`` nodes per leaf."""

    name = "fattree"

    def __init__(self, num_leaves: int, num_spines: int,
                 terminals_per_leaf: int = 2, link_latency: int = 1) -> None:
        super().__init__()
        if num_leaves < 2 or num_spines < 1:
            raise TopologyError("fat tree needs >= 2 leaves and >= 1 spine")
        if terminals_per_leaf < 1:
            raise TopologyError("terminals_per_leaf must be >= 1")
        self.num_leaves = num_leaves
        self.num_spines = num_spines
        self.terminals_per_leaf = terminals_per_leaf
        self.link_latency = link_latency
        self._links = tuple(self._build_links())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self.num_leaves + self.num_spines

    @property
    def num_nodes(self) -> int:
        return self.num_leaves * self.terminals_per_leaf

    def router_of_node(self, node: int) -> int:
        return node // self.terminals_per_leaf

    def is_leaf(self, router: int) -> bool:
        """Whether a router is a leaf switch."""
        return router < self.num_leaves

    def spine_id(self, index: int) -> int:
        """Router id of the ``index``-th spine."""
        return self.num_leaves + index

    def min_hops(self, src_router: int, dst_router: int) -> int:
        if src_router == dst_router:
            return 0
        src_leaf = self.is_leaf(src_router)
        dst_leaf = self.is_leaf(dst_router)
        if src_leaf and dst_leaf:
            return 2
        if src_leaf != dst_leaf:
            return 1
        return 2  # spine to spine via any leaf

    def links(self) -> Sequence[LinkSpec]:
        return self._links

    def _build_links(self) -> List[LinkSpec]:
        links = []
        for leaf in range(self.num_leaves):
            for spine_index in range(self.num_spines):
                spine = self.spine_id(spine_index)
                links.append(LinkSpec(leaf, spine_index, spine, leaf,
                                      self.link_latency))
                links.append(LinkSpec(spine, leaf, leaf, spine_index,
                                      self.link_latency))
        return links
