"""Centralized SPIN — the reference implementation of Sec. III.

The paper notes that the three SPIN features (detect a deadlock, agree on
a time, spin together) are trivial with a central coordinator, and builds
the distributed version only for scalability.  This module provides that
centralized reference: an omniscient controller that

1. periodically runs the exact wait-graph oracle,
2. extracts one cyclic dependency chain from the deadlocked set by
   following ``current_request`` edges,
3. hands it to :meth:`Network.rotate` immediately (the network-wide
   synchronized move is free when a single entity orchestrates it).

It only triggers the move; the move itself, its checks and its counting
are the network's, shared with the distributed executor.

It is useful as an upper bound when evaluating the distributed
implementation's coordination overheads (see the ablation benchmark), for
debugging (it resolves any deadlock in one oracle period), and as an
executable statement of the theory stripped of all protocol concerns.
Everything about it is un-scalable by design: it reads global state every
period.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.deadlock.waitgraph import find_deadlocked_packets
from repro.errors import ConfigurationError

VcKey = Tuple[int, int, int]


class CentralizedSpinPlane:
    """Oracle-driven deadlock recovery with perfect coordination.

    Args:
        check_period: Cycles between oracle evaluations (plays the role of
            tDD: how stale a deadlock may get before resolution).
    """

    def __init__(self, check_period: int = 32) -> None:
        if check_period < 1:
            raise ConfigurationError("check_period must be >= 1")
        self.check_period = check_period
        self.network = None
        self.spins_performed = 0

    def bind(self, network) -> None:
        self.network = network

    def phase_control(self, cycle: int) -> None:
        if cycle == 0 or cycle % self.check_period:
            return
        network = self.network
        if network.packets_in_flight() == 0:
            return
        deadlocked = find_deadlocked_packets(network, cycle)
        if not deadlocked:
            return
        ring = self._extract_ring(deadlocked, cycle)
        if ring:
            self._spin(ring, cycle)

    # ------------------------------------------------------------------
    # Ring extraction
    # ------------------------------------------------------------------
    def _extract_ring(self, deadlocked, now: int) -> List[Tuple[object, int]]:
        """One cyclic chain [(vc, outport), ...] inside the deadlocked set.

        Follows each deadlocked packet's ``current_request`` edge to a
        deadlocked VC at the requested port's downstream input; the walk
        must cycle because it never leaves the (finite) deadlocked set.
        """
        network = self.network
        by_key: Dict[VcKey, object] = {}
        for router, inport, vc in network.occupied_vcs():
            packet = vc.packet
            if packet is not None and packet.uid in deadlocked:
                by_key[(router.id, inport, vc.index)] = vc

        def successor(vc) -> Optional[Tuple[object, int]]:
            packet = vc.packet
            request = packet.current_request
            router = network.routers[vc.router]
            if request is None or request not in router.out_neighbors:
                return None
            neighbor, dst_inport = router.out_neighbors[request]
            slice_ = neighbor.vnet_slice(dst_inport, packet.vnet)
            allowed = network.routing.vc_choices(packet, router, request)
            base = packet.vnet * network.config.vcs_per_vnet
            for local_index in allowed:
                candidate = slice_[local_index]
                key = (neighbor.id, dst_inport, base + local_index)
                if key in by_key and not candidate.frozen:
                    return by_key[key], request
            return None

        if not by_key:
            return []
        start = next(iter(by_key.values()))
        seen: Dict[int, int] = {}
        walk: List[Tuple[object, int]] = []
        vc = start
        while True:
            step = successor(vc)
            if step is None:
                return []  # requests shifted since the oracle ran
            nxt, outport = step
            if id(vc) in seen:
                return walk[seen[id(vc)]:]
            seen[id(vc)] = len(walk)
            walk.append((vc, outport))
            vc = nxt

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def _spin(self, ring: List[Tuple[object, int]], now: int) -> None:
        """Rotate the ring if it is whole and movable, else skip the period."""
        network = self.network
        count = len(ring)
        for vc, _outport in ring:
            if vc.frozen or not vc.fully_arrived(now):
                return
        moves = [(vc, outport, ring[(i + 1) % count][0])
                 for i, (vc, outport) in enumerate(ring)]
        if network.ring_defect(moves, now) is not None:
            return
        network.rotate(moves, now)
        self.spins_performed += 1
        network.stats.count("centralized_spins")
