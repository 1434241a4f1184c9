"""Channel Dependency Graph (CDG) analysis — Dally's sufficient condition.

Dally & Seitz: a routing function is deadlock-free on a network if its
channel dependency graph is acyclic.  This module builds the *exact* CDG of
a position+destination routing function by forward reachability: starting
from every injection, it propagates (channel, destination) pairs through the
routing relation, adding a dependency edge ``c_in -> c_out`` only for
channel pairs some real packet can exercise.  (Naively pairing every input
channel with every output candidate would report phantom cycles for turn
models such as west-first.)

Used by the tests to certify that the Dally/Duato baselines are avoidance-
correct (XY and west-first CDGs acyclic; the escape-VC subfunction acyclic)
and that fully adaptive routing is not (cyclic CDG on a mesh — the paper's
premise for why SPIN is needed at all).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional, Set, Tuple

from repro.network.packet import Packet

if TYPE_CHECKING:
    import networkx as nx

Channel = Tuple[int, int]  # (source router, output port)


def _fake_packet(network, dst_router: int) -> Packet:
    dst_node = network.topology.nodes_of_router(dst_router)[0]
    packet = Packet(src_node=0, dst_node=dst_node, src_router=0,
                    dst_router=dst_router, length=1)
    packet.phase = 1
    return packet


def channel_dependency_graph(network, routing=None,
                             destinations: Optional[Set[int]] = None) -> nx.DiGraph:
    """Exact CDG of a (router, destination) -> ports routing function.

    Args:
        network: A bound network (provides routers and topology).
        routing: Routing function to analyze; defaults to the network's.
            Pass e.g. the escape subfunction of an escape-VC design.
        destinations: Restrict the analysis to these destination routers
            (defaults to all).

    Returns:
        Directed graph over channels ``(router, outport)``.
    """
    import networkx as nx

    routing = routing or network.routing
    topology = network.topology
    graph = nx.DiGraph()
    all_dsts = destinations or range(topology.num_routers)
    for dst_router in all_dsts:
        packet = _fake_packet(network, dst_router)
        # Reachable channels for this destination, seeded at every source.
        frontier = deque()
        seen: Set[Channel] = set()
        for router in network.routers:
            if router.id == dst_router:
                continue
            for port in routing.candidate_outports(router, packet):
                channel = (router.id, port)
                graph.add_node(channel)
                if channel not in seen:
                    seen.add(channel)
                    frontier.append(channel)
        while frontier:
            src_router_id, port = frontier.popleft()
            next_router, _ = network.routers[src_router_id].out_neighbors[port]
            if next_router.id == dst_router:
                continue
            for next_port in routing.candidate_outports(next_router, packet):
                next_channel = (next_router.id, next_port)
                graph.add_edge((src_router_id, port), next_channel)
                if next_channel not in seen:
                    seen.add(next_channel)
                    frontier.append(next_channel)
    return graph


def is_acyclic(graph: nx.DiGraph) -> bool:
    """Whether a CDG satisfies Dally's sufficient condition."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(graph)


def cdg_cycles(graph: nx.DiGraph, limit: int = 10):
    """Up to ``limit`` elementary cycles of a CDG (diagnostics)."""
    import networkx as nx

    cycles = []
    for cycle in nx.simple_cycles(graph):
        cycles.append(cycle)
        if len(cycles) >= limit:
            break
    return cycles
