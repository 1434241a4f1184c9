"""Virtual channel state.

A VC buffer holds at most one packet (virtual cut-through with packet-deep
buffers, the regime of the paper's implementation).  The life cycle is:

* **idle** — no packet, and any previous occupant's tail has drained.
* **reserved/arriving** — allocated by an upstream grant; the head flit lands
  ``link_latency`` cycles later and the packet becomes *ready* after the
  router pipeline latency.
* **blocked/ready** — the packet competes in switch allocation.
* **frozen** — SPIN has pinned the packet for a synchronized spin; it is
  excluded from normal allocation until the spin or a kill_move.
* **draining** — the packet won allocation; flits stream out for ``length``
  cycles after which the VC is idle again.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ProtocolError, RoutingError
from repro.network.packet import Packet


class VirtualChannel:
    """One virtual channel at a router input port."""

    __slots__ = (
        "router", "inport", "index", "vnet", "bit",
        "packet", "head_arrival", "ready_at", "tail_arrival",
        "free_at", "active_since",
        "frozen", "freeze_outport", "freeze_source", "freeze_spin_cycle",
        "freeze_path_index",
    )

    #: Process-wide freeze-state epoch, bumped by every ``freeze()`` /
    #: ``clear_freeze()`` (``release()`` clears only a frozen VC).  Engines
    #: and ``Network.phase_allocate`` compare it to detect "did anything
    #: touch freeze state?" without scanning VCs (freezing is the only
    #: datapath-visible mutation controllers perform outside the
    #: reserve/release event funnel).
    freeze_epoch = 0

    def __init__(self, router: int, inport: int, index: int, vnet: int,
                 bit: int = 0) -> None:
        self.router = router
        self.inport = inport
        self.index = index
        self.vnet = vnet
        #: This VC's bit in its router's occupancy mask (``1 << slot`` of
        #: its place in the router's scan; 0 outside a router).
        self.bit = bit
        self.packet: Optional[Packet] = None
        self.head_arrival = 0
        self.ready_at = 0
        self.tail_arrival = 0
        #: First cycle at which the VC may be re-allocated after draining.
        self.free_at = 0
        #: Cycle the VC was last allocated (paper: "active since"), used by
        #: FAvORS' least-active-VC output selection.
        self.active_since = 0
        self.frozen = False
        self.freeze_outport = -1
        self.freeze_source = -1
        self.freeze_spin_cycle = -1
        self.freeze_path_index = -1

    # ------------------------------------------------------------------
    # State predicates
    # ------------------------------------------------------------------
    def is_idle(self, now: int) -> bool:
        """Free for allocation by an upstream packet."""
        return self.packet is None and now >= self.free_at

    def is_active(self) -> bool:
        """Occupied (reserved, arriving, blocked, or frozen)."""
        return self.packet is not None

    def is_ready(self, now: int) -> bool:
        """Has a packet whose head may compete in switch allocation."""
        return self.packet is not None and now >= self.ready_at

    def fully_arrived(self, now: int) -> bool:
        """The whole packet, tail included, is resident in this buffer."""
        return self.packet is not None and now >= self.tail_arrival

    def active_time(self, now: int) -> int:
        """Cycles since the VC last became active (0 when idle)."""
        if self.packet is None:
            return 0
        return now - self.active_since

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def reserve(self, packet: Packet, now: int, link_latency: int,
                router_latency: int) -> None:
        """Allocate this VC to an in-flight packet granted upstream at ``now``."""
        if not self.is_idle(now):
            raise ProtocolError(
                f"VC {self.router}:{self.inport}.{self.index} allocated while busy"
            )
        self.packet = packet
        self.head_arrival = now + link_latency
        self.ready_at = now + link_latency + router_latency
        self.tail_arrival = now + link_latency + packet.length - 1
        self.active_since = now

    def release(self, now: int) -> Packet:
        """The packet won allocation and starts draining at ``now``."""
        if self.packet is None:
            raise ProtocolError(
                f"VC {self.router}:{self.inport}.{self.index} released while empty"
            )
        packet = self.packet
        self.packet = None
        self.free_at = now + packet.length
        if self.frozen:
            self.clear_freeze()
        return packet

    def freeze(self, outport: int, source: int, spin_cycle: int,
               path_index: int) -> None:
        """Pin the resident packet for a synchronized spin (SPIN move SM)."""
        if self.packet is None:
            raise ProtocolError("cannot freeze an empty VC")
        self.frozen = True
        self.freeze_outport = outport
        self.freeze_source = source
        self.freeze_spin_cycle = spin_cycle
        self.freeze_path_index = path_index
        VirtualChannel.freeze_epoch += 1

    def clear_freeze(self) -> None:
        """Unfreeze (kill_move, spin completion, or safety timeout)."""
        self.frozen = False
        self.freeze_outport = -1
        self.freeze_source = -1
        self.freeze_spin_cycle = -1
        self.freeze_path_index = -1
        VirtualChannel.freeze_epoch += 1

    def __repr__(self) -> str:
        state = "idle" if self.packet is None else (
            "frozen" if self.frozen else "active")
        return (f"VC(r{self.router} p{self.inport}.{self.index} "
                f"vnet{self.vnet} {state})")


def first_idle(vcs, now: int) -> Optional[VirtualChannel]:
    """First VC of a row that an upstream packet may allocate at ``now``."""
    for vc in vcs:
        if vc.packet is None and now >= vc.free_at:
            return vc
    return None


def min_active_time(vcs, now: int) -> int:
    """Smallest "active for" time over a VC row; 0 as soon as one is idle.

    The congestion proxy FAvORS reads from credits (paper Sec. V).

    Raises:
        RoutingError: If the row is empty.
    """
    best = None
    for vc in vcs:
        if vc.packet is None:
            if now >= vc.free_at:
                return 0
            age = 0  # still draining its previous occupant
        else:
            age = now - vc.active_since
        if best is None or age < best:
            best = age
    if best is None:
        raise RoutingError("no VC choices to wait on")
    return best
