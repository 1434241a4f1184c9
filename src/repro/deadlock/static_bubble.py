"""Static Bubble-style deadlock recovery baseline (Ramrakhyani & Krishna,
HPCA 2017), as compared against in the paper's Fig. 7 and Fig. 10.

The defining property the paper highlights: "one of the VCs in Static Bubble
is reserved for deadlock recovery and cannot be used during normal
operation".  This implementation reproduces that contract on our substrate:

* Normal operation routes fully adaptively over VCs ``0 .. V-2``.
* VC ``V-1`` at every port is the reserved recovery layer.  It is used only
  by packets that a per-router timeout has switched to *escape mode*; escape
  packets drain through the reserved layer under dimension-order (XY)
  routing, whose CDG is acyclic, so a recovery always completes and frees a
  buffer in any deadlocked ring.

This abstracts the original's bubble-placement machinery (which exists to
bound where recovery buffers are needed) while preserving its performance
characteristics — the reserved buffer is dead capacity during normal
operation, which is exactly the cost SPIN's comparison targets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.network.packet import Packet
from repro.network.router import is_ejection_port
from repro.routing.adaptive import MinimalAdaptiveRouting

#: Packet route_state key marking escape (recovery) mode.
_ESCAPE = "static_bubble_escape"


class StaticBubbleRouting(MinimalAdaptiveRouting):
    """Fully adaptive over VCs 0..V-2; reserved VC V-1 drains via XY."""

    name = "StaticBubble"
    theory = "FlowCtrl"

    def _setup(self) -> None:
        self._require_vcs(2)
        if not hasattr(self.topology, "directions_toward"):
            raise ConfigurationError("StaticBubble baseline needs a mesh")
        #: The two VC classes: normal operation and the reserved layer.
        self._normal_vcs = self._all_vcs[:-1]
        self._reserved_vc = self._all_vcs[-1:]

    def _xy_port(self, router, packet: Packet) -> int:
        from repro.topology.mesh import EAST, WEST

        productive = self.topology.directions_toward(
            router.id, packet.routing_target)
        x_dirs = [d for d in productive if d in (EAST, WEST)]
        return (x_dirs or productive)[0]

    def candidate_outports(self, router, packet: Packet) -> Sequence[int]:
        if packet.route_state.get(_ESCAPE):
            return (self._xy_port(router, packet),)
        return super().candidate_outports(router, packet)

    def vc_choices(self, packet: Packet, router, outport: int) -> Sequence[int]:
        if packet.route_state.get(_ESCAPE):
            return self._reserved_vc
        return self._normal_vcs

    def injection_vc_choices(self, packet: Packet) -> Sequence[int]:
        return self._normal_vcs

    def wait_targets(self, router, packet: Packet, now: int):
        """Includes the escape layer: a timeout can always rescue a packet.

        This makes the ground-truth oracle agree that the scheme is
        deadlock-free (a blocked packet's wait set always contains the
        reserved XY chain, which drains).
        """
        targets = super().wait_targets(router, packet, now)
        if targets and not packet.route_state.get(_ESCAPE):
            escape_port = self._xy_port(router, packet)
            targets.append(
                (escape_port,
                 [router.downstream_vcs(escape_port, packet.vnet)[-1]]))
        return targets


class StaticBubbleControlPlane:
    """Per-router timeout that switches stuck packets into escape mode."""

    def __init__(self, tdd: int = 128) -> None:
        self.tdd = tdd
        self.network = None
        self._pointers: List[Optional[Tuple[int, int]]] = []
        self._pointed_uid: List[Optional[int]] = []
        self._deadlines: List[int] = []

    def bind(self, network) -> None:
        if not isinstance(network.routing, StaticBubbleRouting):
            raise ConfigurationError(
                "StaticBubbleControlPlane requires StaticBubbleRouting")
        self.network = network
        count = len(network.routers)
        self._pointers = [None] * count
        self._pointed_uid = [None] * count
        self._deadlines = [0] * count

    def phase_control(self, cycle: int) -> None:
        for router in self.network.routers:
            if not router.occupied:
                self._pointers[router.id] = None
                continue
            self._tick_router(router, cycle)

    def _tick_router(self, router, now: int) -> None:
        rid = router.id
        pointer = self._pointers[rid]
        vc = self._vc_at(router, pointer)
        if (
            vc is None or vc.packet is None
            or vc.packet.uid != self._pointed_uid[rid]
        ):
            self._advance(router, now)
            return
        if now < self._deadlines[rid]:
            return
        packet = vc.packet
        request = packet.current_request
        if (
            vc.fully_arrived(now)
            and request is not None
            and not is_ejection_port(request)
            and not packet.route_state.get(_ESCAPE)
        ):
            packet.route_state[_ESCAPE] = True
            self.network.stats.count("static_bubble_recoveries")
        self._advance(router, now)

    def _vc_at(self, router, pointer):
        if pointer is None:
            return None
        inport, index = pointer
        vcs = router.inports.get(inport)
        if vcs is None or index >= len(vcs):
            return None
        return vcs[index]

    def _advance(self, router, now: int) -> None:
        """Point at the next occupied network-input VC, round-robin."""
        rid = router.id
        vcs = [vc for port in sorted(router.inports)
               for vc in router.inports[port]]
        if not vcs:
            self._pointers[rid] = None
            return
        start = 0
        pointer = self._pointers[rid]
        if pointer is not None:
            for i, vc in enumerate(vcs):
                if (vc.inport, vc.index) == pointer:
                    start = i + 1
                    break
        for offset in range(len(vcs)):
            vc = vcs[(start + offset) % len(vcs)]
            if vc.packet is not None:
                self._pointers[rid] = (vc.inport, vc.index)
                self._pointed_uid[rid] = vc.packet.uid
                self._deadlines[rid] = now + self.tdd
                return
        self._pointers[rid] = None
        self._pointed_uid[rid] = None
