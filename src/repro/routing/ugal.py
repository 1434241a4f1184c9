"""Dragonfly routing: minimal and UGAL (Universal Globally-Adaptive Load-balanced).

``UgalRouting`` decides minimal-vs-Valiant once at the source by comparing
weighted congestion estimates of the two first hops (Kim et al., ISCA 2008).
Its deadlock-avoidance baseline form applies the standard Dally-style VC
ordering for dragonflies: a packet must move to the next VC class every time
it crosses a global (inter-group) channel, which needs 2 VC classes for
minimal and 3 for non-minimal traffic.  With ``vc_discipline=False`` the
same algorithm runs unrestricted — the paper's "UGAL with SPIN" design that
"allows packets to freely use any available VC" (Sec. VI-C).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.network.packet import Packet
from repro.network.vc import min_active_time
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.routing.base import RoutingAlgorithm
from repro.topology.dragonfly import DragonflyTopology


class MinimalDragonflyRouting(MinimalAdaptiveRouting):
    """Minimal adaptive routing on a dragonfly (Fig. 6's 1-VC baseline)."""

    name = "Minimal"

    def _setup(self) -> None:
        if not isinstance(self.topology, DragonflyTopology):
            raise ConfigurationError("this algorithm needs a dragonfly topology")


class UgalRouting(RoutingAlgorithm):
    """UGAL-L source-adaptive routing for dragonflies.

    Args:
        seed: RNG seed for intermediate-group selection and tie-breaks.
        vc_discipline: Apply the Dally VC-ordering (the avoidance baseline).
            When False, deadlock freedom must come from a recovery control
            plane such as SPIN.
        threshold: Bias toward minimal routing in the UGAL comparison.
    """

    name = "UGAL"
    minimal = False
    max_misroutes = 1  # UGAL misroutes a packet at most once (Sec. III)
    theory = "Dally"

    def __init__(self, seed: int = 0, vc_discipline: bool = True,
                 threshold: int = 0) -> None:
        super().__init__(seed)
        self.vc_discipline = vc_discipline
        self.threshold = threshold
        if vc_discipline:
            self.name = "UGAL-Dally"
        else:
            self.name = "UGAL-SPIN"
            self.theory = "SPIN"

    def _setup(self) -> None:
        if not isinstance(self.topology, DragonflyTopology):
            raise ConfigurationError("UGAL needs a dragonfly topology")
        if self.vc_discipline:
            # Classes 0..2: before, between and after the two global hops of
            # a Valiant path.
            self._require_vcs(3)
        #: VC class -> the one VC index the discipline permits.
        self._class_vc = tuple((vc,) for vc in self._all_vcs)

    # ------------------------------------------------------------------
    # Source decision
    # ------------------------------------------------------------------
    def on_inject(self, packet: Packet, now: int) -> None:
        packet.vc_class = 0
        packet.route_state["globals"] = 0
        source = self.network.routers[packet.src_router]
        if packet.dst_router == packet.src_router:
            return
        topology: DragonflyTopology = self.topology
        src_group = topology.group_of(packet.src_router)
        dst_group = topology.group_of(packet.dst_router)
        if src_group == dst_group:
            return  # intra-group traffic is always minimal (single hop)
        min_ports = self.productive_ports(source, packet.dst_router)
        q_min = self._port_congestion(source, packet, min_ports, now)
        if q_min == 0:
            return  # an idle minimal first hop: route minimally
        intermediate_group = self._random_other_group(src_group, dst_group)
        intermediate = topology.router_in_group(
            intermediate_group, self.rng.randint(0, topology.a - 1))
        h_min = topology.min_hops(packet.src_router, packet.dst_router)
        h_non = (topology.min_hops(packet.src_router, intermediate)
                 + topology.min_hops(intermediate, packet.dst_router))
        non_ports = self.productive_ports(source, intermediate)
        q_non = self._port_congestion(source, packet, non_ports, now)
        if h_min * q_min > h_non * q_non + self.threshold:
            packet.intermediate_router = intermediate
            packet.phase = 0

    def _random_other_group(self, src_group: int, dst_group: int) -> int:
        topology: DragonflyTopology = self.topology
        while True:
            group = self.rng.randint(0, topology.num_groups - 1)
            if group not in (src_group, dst_group):
                return group

    def _port_congestion(self, router, packet: Packet,
                         ports: Sequence[int], now: int) -> int:
        """Congestion proxy: occupied-VC count at the best candidate port.

        Classic UGAL compares output-queue depths; the closest observable
        on this substrate is the number of busy VCs at the downstream input
        port.  Measured over *all* VCs of the port — identically for the
        Dally-disciplined and the SPIN variants — so both make the same
        minimal-vs-Valiant decisions and the designs differ only in how
        freely packets may use the VCs (the paper's Sec. VI-C comparison).
        """
        if not ports:
            return 0
        rows = [router.downstream_vcs(port, packet.vnet) for port in ports]
        best = len(self._all_vcs) + 1
        for vcs in rows:
            busy = 0
            for vc in vcs:
                # ``not vc.is_idle(now)``, inlined.
                if vc.packet is not None or now < vc.free_at:
                    busy += 1
            if busy < best:
                best = busy
        if best == len(self._all_vcs):
            # Every VC busy: refine by how long the youngest has been busy.
            best += min(min_active_time(vcs, now) for vcs in rows)
        return best

    # ------------------------------------------------------------------
    # Per-hop routing
    # ------------------------------------------------------------------
    def candidate_outports(self, router, packet: Packet) -> Sequence[int]:
        return self.productive_ports(router, packet.routing_target)

    def vc_choices(self, packet: Packet, router, outport: int) -> Sequence[int]:
        if not self.vc_discipline:
            return self._all_vcs
        class_vc = self._class_vc
        return class_vc[min(packet.vc_class, len(class_vc) - 1)]

    def injection_vc_choices(self, packet: Packet) -> Sequence[int]:
        if not self.vc_discipline:
            return self._all_vcs
        return self._class_vc[0]

    def on_hop(self, packet: Packet, router, outport: int) -> None:
        topology: DragonflyTopology = self.topology
        if topology.is_global_port(outport):
            packet.route_state["globals"] = packet.route_state.get("globals", 0) + 1
            packet.vc_class = packet.route_state["globals"]
