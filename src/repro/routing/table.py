"""Up*/down* routing for irregular topologies.

The classic Dally-theory solution for arbitrary graphs (used by Autonet and
most NoC reconfiguration schemes such as ARIADNE): orient every channel
up/down along a BFS spanning tree (the "up" end is closer to the root;
ties break toward the smaller router id) and forbid the down->up turn.
Every legal path is a sequence of up hops followed by down hops, which makes
the channel dependency graph acyclic at the cost of longer, less diverse
routes — precisely the restriction SPIN removes on irregular networks.

Routing is adaptive among all *shortest legal* next hops, computed from a
precomputed distance table over the (router, may-still-go-up) state graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import ConfigurationError, RoutingError
from repro.network.packet import Packet
from repro.routing.base import RoutingAlgorithm

#: Packet route_state key: set once the packet has taken a down hop.
_WENT_DOWN = "updown_went_down"


class UpDownRouting(RoutingAlgorithm):
    """Adaptive shortest-path up*/down* routing on any connected topology."""

    name = "UpDown"
    minimal = False  # legal paths may exceed the unrestricted minimum
    max_misroutes = 0
    theory = "Dally"

    def __init__(self, seed: int = 0, root: int = 0) -> None:
        super().__init__(seed)
        self.root = root
        #: (router, port) -> True if the hop goes "up" (toward the root).
        self._is_up_hop: Dict[Tuple[int, int], bool] = {}
        #: target -> distance array indexed by router * 2 + phase
        #: (phase 0 = may still go up, 1 = down only).
        self._distance: Dict[int, List[int]] = {}
        #: Directed hops (router, port) currently failed at runtime.
        self._dead_hops: Set[Tuple[int, int]] = set()
        self._infinity = 0

    def _setup(self) -> None:
        topology = self.topology
        if not 0 <= self.root < topology.num_routers:
            raise ConfigurationError(
                f"up*/down* root {self.root} is not a router "
                f"(0..{topology.num_routers - 1})")
        # Channels are bidirectional, so the outbound BFS is the undirected one.
        depth = topology._bfs_hops(self.root)

        def rank(router: int) -> Tuple[int, int]:
            return depth[router], router

        for router_id in range(topology.num_routers):
            for port, (neighbor, _, _) in topology.neighbors(router_id).items():
                self._is_up_hop[(router_id, port)] = rank(neighbor) < rank(router_id)
        self._distance = {}
        self._dead_hops = set()
        self._precompute_distances(strict=True)

    def _precompute_distances(self, strict: bool) -> None:
        """BFS per target over the (router, phase) state graph, reversed.

        ``distance[target][router * 2 + phase]`` is the length of the
        shortest legal path from ``router`` (in the given phase) to
        ``target``; unreachable states hold a large sentinel.

        Hops in ``_dead_hops`` (runtime link failures) are excluded.  With
        ``strict`` (initial setup on a healthy fabric) unreachability is an
        error; during a fault-driven recompute it merely strands the
        affected (router, target) pairs — their packets wait for a link_up
        or are reclaimed by the fault injector.
        """
        topology = self.topology
        num = topology.num_routers
        infinity = num * 4 + 1
        self._infinity = infinity
        dead = self._dead_hops
        # Reverse edges: to relax (r, phase) we need predecessors (s, phase')
        # such that the hop s->r is legal from phase'.
        predecessors: List[List[int]] = [[] for _ in range(num * 2)]
        for router_id in range(num):
            for port, (neighbor, _, _) in topology.neighbors(router_id).items():
                if (router_id, port) in dead:
                    continue
                if self._is_up_hop[(router_id, port)]:
                    # up hop: only legal from phase 0, stays in phase 0
                    predecessors[neighbor * 2 + 0].append(router_id * 2 + 0)
                else:
                    # down hop: legal from both phases, lands in phase 1
                    predecessors[neighbor * 2 + 1].append(router_id * 2 + 0)
                    predecessors[neighbor * 2 + 1].append(router_id * 2 + 1)
        for target in range(num):
            dist = [infinity] * (num * 2)
            queue = deque()
            for phase in (0, 1):
                dist[target * 2 + phase] = 0
                queue.append(target * 2 + phase)
            while queue:
                state = queue.popleft()
                for pred in predecessors[state]:
                    if dist[pred] > dist[state] + 1:
                        dist[pred] = dist[state] + 1
                        queue.append(pred)
            if strict:
                for router_id in range(num):
                    if dist[router_id * 2] >= infinity:
                        raise RoutingError(
                            f"up*/down* cannot reach {target} from {router_id}")
            self._distance[target] = dist

    def on_link_state_change(self, link, up: bool, now: int) -> None:
        """Recompute the legal-path distance table around a failed link.

        The up/down orientation is kept (re-orienting the spanning tree at
        runtime is a reconfiguration protocol of its own); only the distance
        relaxation changes.  Pairs left without a legal up*/down* path are
        stranded until the link revives.
        """
        hop = (link.src, link.src_port)
        if up:
            self._dead_hops.discard(hop)
        else:
            self._dead_hops.add(hop)
        self._precompute_distances(strict=False)
        if self.network is not None:
            self.network.stats.count("routing_recomputes")

    # ------------------------------------------------------------------
    # Routing interface
    # ------------------------------------------------------------------
    def on_inject(self, packet: Packet, now: int) -> None:
        packet.route_state[_WENT_DOWN] = False

    def candidate_outports(self, router, packet: Packet) -> Sequence[int]:
        phase = 1 if packet.route_state.get(_WENT_DOWN) else 0
        dist = self._distance[packet.routing_target]
        here = dist[router.id * 2 + phase]
        if here >= self._infinity:
            # No legal up*/down* path from here under the current fault set:
            # the packet is stranded (base-class dead-link filter counts it).
            return ()
        dead = self._dead_hops
        candidates = []
        for port in sorted(router.out_neighbors):
            neighbor, _ = router.out_neighbors[port]
            if dead and (router.id, port) in dead:
                continue
            up = self._is_up_hop[(router.id, port)]
            if up and phase == 1:
                continue
            next_phase = 0 if up else 1
            if dist[neighbor.id * 2 + next_phase] == here - 1:
                candidates.append(port)
        return tuple(candidates)

    def on_hop(self, packet: Packet, router, outport: int) -> None:
        if not self._is_up_hop[(router.id, outport)]:
            packet.route_state[_WENT_DOWN] = True

    def legal_path_length(self, src_router: int, dst_router: int) -> int:
        """Length of the shortest legal up*/down* path (for tests/reports)."""
        return self._distance[dst_router][src_router * 2 + 0]
