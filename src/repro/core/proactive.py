"""Proactive spinning — SPIN as a deadlock *avoidance* scheme.

The paper's footnote 3: "SPIN could be implemented as an avoidance scheme
via proactive spinning, though we do not explore that in this work."  The
follow-on DRAIN work (HPCA 2020) built exactly this: instead of detecting
deadlocks with probes, periodically rotate the packets sitting on a
predefined closed walk through every router.  Any deadlocked ring shares
buffers with the walk, so the forced rotation breaks it — no detection, no
probes, no loop buffer.

This implementation:

* builds a closed walk visiting every router (an Euler tour of a spanning
  tree — each tree edge is traversed once per direction, so every chain
  buffer along the walk is distinct);
* designates VC 0 of each walk-arrival input port as the *drain chain*;
* when the network has made no forward progress for ``stall_threshold``
  cycles, hands every movable occupant of the chain to
  :meth:`Network.rotate` for one step along the walk (same simultaneity
  argument as the reactive spin: each packet lands in the buffer its
  successor vacates, or in an idle one);
* rotated packets may be misrouted (the walk ignores their destinations);
  fully adaptive routing re-steers them afterwards, and the misroute is
  charged to the packet like any non-minimal hop.

The plane only decides when and which occupants move; the move and its
counting are the network's, shared with the reactive executor.

Cost trade-off vs the reactive framework (measured in the ablation bench):
no probe traffic and no per-loop coordination latency, but spins touch
packets that were never deadlocked.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ConfigurationError, InvariantViolation


class ProactiveSpinPlane:
    """Control plane performing periodic forced drains of a global chain.

    Args:
        stall_threshold: Drain when no flit has moved for this many cycles
            while packets are resident.
        period: Minimum cycles between consecutive drains.
    """

    def __init__(self, stall_threshold: int = 64, period: int = 16) -> None:
        if stall_threshold < 1 or period < 1:
            raise ConfigurationError(
                "stall_threshold and period must be >= 1")
        self.stall_threshold = stall_threshold
        self.period = period
        self.network = None
        #: Chain steps: (router, arrival inport, next outport).
        self._chain: List[Tuple[int, int, int]] = []
        self._last_drain = -(10 ** 9)
        self.drains_performed = 0
        self.packets_drained = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def bind(self, network) -> None:
        self.network = network
        self._chain = self._build_chain()

    def _build_chain(self) -> List[Tuple[int, int, int]]:
        """Closed walk over a spanning tree (Euler tour), as chain steps.

        Returns steps ``(router, inport, outport)``: the walk arrives at
        ``router`` through ``inport`` and leaves through ``outport``.  Every
        (router, inport) pair is unique because each directed tree edge
        appears exactly once in an Euler tour.
        """
        network = self.network
        topology = network.topology
        # Spanning tree by BFS.
        children: Dict[int, List[int]] = {r: [] for r in
                                          range(topology.num_routers)}
        visited = {0}
        frontier = [0]
        while frontier:
            router = frontier.pop(0)
            for _port, (neighbor, _, _) in sorted(
                    topology.neighbors(router).items()):
                if neighbor not in visited:
                    visited.add(neighbor)
                    children[router].append(neighbor)
                    frontier.append(neighbor)
        if len(visited) != topology.num_routers:
            raise ConfigurationError("topology is not connected")

        def port_between(src: int, dst: int) -> Tuple[int, int]:
            for port, (neighbor, dst_port, _) in (
                    topology.neighbors(src).items()):
                if neighbor == dst:
                    return port, dst_port
            raise ConfigurationError(f"{src} and {dst} not adjacent")

        # Euler tour: the sequence of directed edges of the walk.
        edges: List[Tuple[int, int]] = []

        def tour(router: int) -> None:
            for child in children[router]:
                edges.append((router, child))
                tour(child)
                edges.append((child, router))

        tour(0)
        if not edges:
            raise ConfigurationError("need at least two routers to drain")
        # Convert consecutive edges into (router, inport, outport) steps.
        steps = []
        count = len(edges)
        for i in range(count):
            src, dst = edges[i]
            _, inport = port_between(src, dst)
            next_src, next_dst = edges[(i + 1) % count]
            if next_src != dst:
                # Survives ``python -O`` (a bare assert would not) and
                # names the broken step; this is a builder bug, never a
                # property of the simulated design.
                raise InvariantViolation(
                    "Euler walk is not contiguous",
                    invariant="drain_chain", step=i, src=src, dst=dst,
                    next_src=next_src, next_dst=next_dst)
            outport, _ = port_between(next_src, next_dst)
            steps.append((dst, inport, outport))
        return steps

    def chain_length(self) -> int:
        """Number of buffers in the drain chain."""
        return len(self._chain)

    # ------------------------------------------------------------------
    # Per-cycle hook
    # ------------------------------------------------------------------
    def phase_control(self, cycle: int) -> None:
        network = self.network
        if cycle - self._last_drain < self.period:
            return
        if network.idle_cycles() < self.stall_threshold:
            return
        if network.packets_in_flight() == 0:
            return
        self._drain(cycle)
        self._last_drain = cycle

    # ------------------------------------------------------------------
    # The drain
    # ------------------------------------------------------------------
    def _chain_vc(self, step_index: int):
        router_id, inport, _ = self._chain[step_index]
        return self.network.routers[router_id].inports[inport][0]

    def _occupant_movable(self, vc, outport: int, router, now: int) -> bool:
        packet = vc.packet
        return (
            packet is not None
            and not vc.frozen
            and vc.fully_arrived(now)
            and router.out_links[outport].is_free(now)
        )

    def _drain(self, now: int) -> None:
        """Rotate movable chain occupants one step along the walk.

        An occupant moves iff its own hop is possible *and* its target
        buffer will be free this cycle (empty, or vacated by an occupant
        that itself moves) — computed by a backward fixpoint over the
        cyclic chain.
        """
        network = self.network
        chain = self._chain
        count = len(chain)
        movable = [False] * count
        occupied = [self._chain_vc(i).packet is not None for i in range(count)]
        # A target is usable if idle *now*, or occupied by a packet that
        # itself moves this drain (simultaneous vacate).  An empty buffer
        # still draining a previous packet's tail is not usable.
        idle_now = [self._chain_vc(i).is_idle(now) for i in range(count)]
        # Iterate until stable (cyclic dependency: everyone-moves is valid
        # when the whole chain is full, so start optimistic).
        for i in range(count):
            router_id, _inport, outport = chain[i]
            router = network.routers[router_id]
            movable[i] = self._occupant_movable(
                self._chain_vc(i), outport, router, now)
        changed = True
        while changed:
            changed = False
            for i in range(count):
                if not movable[i]:
                    continue
                target = (i + 1) % count
                target_free = idle_now[target] or (
                    occupied[target] and movable[target])
                if not target_free:
                    movable[i] = False
                    changed = True

        moving = [i for i in range(count) if movable[i]]
        if not moving:
            return
        # Idle targets keep their earlier free_at; vacated ones free now.
        network.rotate([(self._chain_vc(i), chain[i][2],
                         self._chain_vc((i + 1) % count)) for i in moving],
                       now)
        self.drains_performed += 1
        self.packets_drained += len(moving)
        network.stats.count("proactive_drains")
        network.stats.count("proactive_packets_drained", len(moving))
