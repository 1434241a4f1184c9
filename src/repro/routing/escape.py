"""Escape-VC routing (Duato's theory) for meshes.

VC 0 of every vnet is the *escape* channel; routing inside it follows a
deadlock-free restricted function (west-first by default, which is acyclic
on a mesh).  All other VCs are fully adaptive among minimal paths.  A packet
always prefers the adaptive VCs; when none is idle it requests the escape
VC of its escape-route port, so the acyclic escape sub-network is reachable
from every blocked state — the sufficient condition of Duato's theorem.

This is the paper's ``EscapeVC`` mesh baseline (Table III).
"""

from __future__ import annotations

from typing import Sequence

from repro.network.packet import Packet
from repro.network.vc import first_idle
from repro.routing.base import RoutingAlgorithm
from repro.routing.turn_model import WestFirstRouting


class EscapeVcRouting(RoutingAlgorithm):
    """Duato-style: adaptive VCs 1..V-1 plus a west-first escape VC 0."""

    name = "EscapeVC"
    minimal = True
    max_misroutes = 0
    theory = "Duato"

    def __init__(self, seed: int = 0, escape_routing=None) -> None:
        super().__init__(seed)
        #: Restricted routing function used inside the escape VC.
        self.escape_routing = escape_routing or WestFirstRouting(seed)

    def _setup(self) -> None:
        self._require_vcs(2)
        self.escape_routing.bind(self.network)
        #: The two VC classes: the escape VC and the adaptive rest.
        self._escape_vc = (0,)
        self._adaptive_vcs = self._all_vcs[1:]

    def candidate_outports(self, router, packet: Packet) -> Sequence[int]:
        return self.productive_ports(router, packet.routing_target)

    def _escape_port(self, router, packet: Packet) -> int:
        ports = self.escape_routing.candidate_outports(router, packet)
        return ports[0]

    def select(self, router, packet: Packet, candidates: Sequence[int],
               now: int) -> int:
        vnet = packet.vnet
        free = [  # ports with an idle adaptive VC (every VC but the first)
            port for port in candidates
            if first_idle(router.downstream_vcs(port, vnet)[1:], now)
            is not None
        ]
        if free:
            packet.route_state["escape"] = False
            return free[0] if len(free) == 1 else self.rng.choice(free)
        # No adaptive VC anywhere: fall back to (or wait on) the escape path.
        packet.route_state["escape"] = True
        return self._escape_port(router, packet)

    def vc_choices(self, packet: Packet, router, outport: int) -> Sequence[int]:
        if packet.route_state.get("escape"):
            return self._escape_vc
        return self._adaptive_vcs

    def wait_targets(self, router, packet: Packet, now: int):
        """Escape-aware targets: blocked packets can always use VC 0."""
        if packet.reached_phase_target(router.id):
            return []
        vnet = packet.vnet
        targets = [
            (port, list(router.downstream_vcs(port, vnet)[1:]))
            for port in self.candidate_outports(router, packet)
        ]
        escape_port = self._escape_port(router, packet)
        targets.append(
            (escape_port, [router.downstream_vcs(escape_port, vnet)[0]]))
        return targets
