"""Router model.

A single-cycle (configurable) virtual-cut-through router:

* **Route compute** — every ready head packet asks the routing algorithm for
  an output port each cycle (fully adaptive algorithms may change their
  answer as congestion evolves).  The answer is recorded in
  ``packet.current_request`` which SPIN's probe logic consumes.
* **Switch allocation** — separable: one grant per input port and one per
  output port per cycle, round-robin arbitration at each output port.
* **Switch/link traversal** — a granted packet reserves an idle downstream
  VC and streams its flits across the link, occupying the input port, the
  output link, and (progressively) the downstream buffer for ``length``
  cycles; see DESIGN.md §3 for the exact timing contract.

Port-number convention: network ports are small integers defined by the
topology; injection (NIC -> router) ports start at :data:`INJECT_PORT_BASE`;
ejection (router -> NIC) ports start at :data:`EJECT_PORT_BASE`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import NetworkConfig
from repro.errors import RoutingError
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.vc import VirtualChannel

#: First port index used for NIC->router injection ports.
INJECT_PORT_BASE = 1000
#: First port index used for router->NIC ejection ports.
EJECT_PORT_BASE = 2000
#: Wake time meaning "never, until a VC event or a thaw".
NEVER = 1 << 60


def is_ejection_port(port: int) -> bool:
    """Whether a port index denotes an ejection (router->NIC) port."""
    return port >= EJECT_PORT_BASE


def is_injection_port(port: int) -> bool:
    """Whether a port index denotes an injection (NIC->router) port."""
    return INJECT_PORT_BASE <= port < EJECT_PORT_BASE


class Router:
    """One network router."""

    def __init__(self, router_id: int, config: NetworkConfig, plan,
                 network=None) -> None:
        """Instantiate the router's ports and VCs from the fabric plan
        (:class:`repro.network.plan.FabricPlan`); links are wired by the
        owning :class:`~repro.network.network.Network`."""
        self.id = router_id
        self.config = config
        self.network = network
        # Every input VC in scan order.
        ports = plan.in_ports[router_id]
        scan = [VirtualChannel(router_id, port, index, vnet, bit)
                for port, slots in zip(ports, plan.port_slots)
                for index, vnet, bit in slots]
        # One list per port: ``width`` consecutive VCs of the scan.
        width = plan.num_vnets * plan.vcs_per_vnet
        rows = list(map(list, zip(*[iter(scan)] * width)))
        net_ports = plan.net_ports[router_id]
        count = len(net_ports)
        #: Network input ports: port index -> VCs (vnet-major order).
        self.inports: Dict[int, List[VirtualChannel]] = dict(
            zip(net_ports, rows))
        #: Injection ports from attached NICs.
        self.local_inports: Dict[int, List[VirtualChannel]] = dict(
            zip(ports[count:], rows[count:]))
        #: Outbound links by network output port.
        self.out_links: Dict[int, Link] = {}
        #: Downstream (router, inport) by network output port.
        self.out_neighbors: Dict[int, Tuple["Router", int]] = {}
        #: Ejection port busy-until times (one per attached NIC).
        self.eject_busy: Dict[int, int] = dict.fromkeys(
            range(EJECT_PORT_BASE,
                  EJECT_PORT_BASE + plan.local_counts[router_id]), -1)
        #: Input-port busy-until times (switch input occupancy).
        self.port_busy: Dict[int, int] = dict.fromkeys(ports, -1)
        #: Round-robin arbiter pointers per output port.
        self._rr: Dict[int, int] = {}
        #: Occupancy mask: bit ``i`` is set while ``_scan[i]`` holds a
        #: packet (``VirtualChannel.bit``).  ``allocate`` walks its set bits
        #: in scan order; ``Network.note_vc_reserved`` / ``note_vc_released``
        #: keep it.
        self.occupied = 0
        #: First cycle ``Network.phase_allocate`` calls this router again:
        #: set by an ``allocate`` that found no ready, unfrozen VC (and by
        #: the first packet to reach an empty router) to the earliest
        #: ``ready_at`` of its unfrozen VCs; lowered by every reserve.
        self.wake = NEVER
        #: Every input VC in ``all_inports()`` order (the plan's VC id
        #: order within this router).
        self._scan: Tuple[VirtualChannel, ...] = tuple(scan)
        #: Output port -> per-vnet VC tuples of the next hop's input port
        #: (each filled the first time a packet looks through the port).
        self._down_rows: Dict[int, Tuple[Tuple[VirtualChannel, ...], ...]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def all_inports(self) -> Iterable[Tuple[int, List[VirtualChannel]]]:
        """Network input ports first, then injection ports."""
        yield from self.inports.items()
        yield from self.local_inports.items()

    def vcs_at(self, port: int) -> List[VirtualChannel]:
        """VCs behind any input port (network or injection)."""
        if port in self.inports:
            return self.inports[port]
        return self.local_inports[port]

    def vnet_slice(self, port: int, vnet: int) -> List[VirtualChannel]:
        """The VCs of one virtual network at an input port."""
        base = vnet * self.config.vcs_per_vnet
        return self.vcs_at(port)[base:base + self.config.vcs_per_vnet]

    def downstream_vcs(self, outport: int,
                       vnet: int) -> Tuple[VirtualChannel, ...]:
        """The VCs of one virtual network at the next hop's input port."""
        rows = self._down_rows.get(outport)
        if rows is None:
            neighbor, dst_port = self.out_neighbors[outport]
            rows = self._down_rows[outport] = tuple(
                tuple(neighbor.vnet_slice(dst_port, vnet))
                for vnet in range(self.config.num_vnets))
        return rows[vnet]

    def network_ports(self) -> List[int]:
        """Network output-port indices, ascending."""
        return sorted(self.out_links)

    @property
    def active_vcs(self) -> int:
        """Number of occupied VCs (the set bits of :attr:`occupied`)."""
        return bin(self.occupied).count("1")

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, now: int) -> int:
        """Run one cycle of route compute + switch allocation.

        Returns:
            Number of packets granted this cycle.
        """
        mask = self.occupied
        if not mask:
            self.wake = NEVER
            return 0
        routing = self.network.routing
        decide = routing.decide
        port_busy = self.port_busy
        scan = self._scan
        requests: Dict[int, List[VirtualChannel]] = {}
        # The occupied VCs in scan order, lowest set bit first.
        ready = False
        wake = NEVER
        while mask:
            low = mask & -mask
            mask ^= low
            vc = scan[low.bit_length() - 1]
            packet = vc.packet
            if packet is None or vc.frozen:
                continue
            ready_at = vc.ready_at
            if now < ready_at:
                if ready_at < wake:
                    wake = ready_at
                continue
            ready = True
            inport = vc.inport
            outport = decide(self, inport, packet, now)
            if outport is not None and now > port_busy[inport]:
                requests.setdefault(outport, []).append(vc)
        if not ready:
            # Nothing can compete before ``wake`` (a thaw or a new packet
            # wakes the router earlier): this call decided and wrote nothing.
            self.wake = wake
            return 0
        if not requests:
            return 0

        grants = 0
        granted_inports = set()
        for outport in sorted(requests):
            ejection = outport >= EJECT_PORT_BASE
            if ejection:
                if now <= self.eject_busy[outport]:
                    continue
            else:
                link = self.out_links.get(outport)
                if link is None:
                    raise RoutingError(
                        f"router {self.id} has no output port {outport}")
                if not link.is_free(now):
                    continue
            viable: List[Tuple[VirtualChannel, Optional[VirtualChannel]]] = []
            for vc in requests[outport]:
                if vc.inport in granted_inports:
                    continue
                if ejection:
                    viable.append((vc, None))
                else:
                    dvc = routing.pick_downstream_vc(
                        self, vc.packet, outport, now)
                    if dvc is not None:
                        viable.append((vc, dvc))
            if not viable:
                continue
            winner_vc, winner_dvc = self._arbitrate(outport, viable)
            granted_inports.add(winner_vc.inport)
            if ejection:
                self._grant_ejection(winner_vc, outport, now)
            else:
                self._grant_network(winner_vc, winner_dvc, outport, now)
            grants += 1
        return grants

    def _arbitrate(self, outport: int, viable) -> Tuple[VirtualChannel, object]:
        """Round-robin choice among viable (vc, downstream vc) requests."""
        if len(viable) == 1:
            vc, dvc = viable[0]
            self._rr[outport] = vc.inport * 64 + vc.index + 1
            return vc, dvc
        pointer = self._rr.get(outport, 0)
        # Order requests by a stable key and pick the first at/after pointer.
        viable.sort(key=lambda pair: (pair[0].inport, pair[0].index))
        keys = [(vc.inport * 64 + vc.index) for vc, _ in viable]
        chosen = 0
        for i, key in enumerate(keys):
            if key >= pointer:
                chosen = i
                break
        vc, dvc = viable[chosen]
        self._rr[outport] = keys[chosen] + 1
        return vc, dvc

    def _grant_network(self, vc: VirtualChannel, dvc: VirtualChannel,
                       outport: int, now: int) -> None:
        """Move a packet one hop: reserve downstream, start streaming."""
        packet = vc.release(now)
        link = self.out_links[outport]
        neighbor, _ = self.out_neighbors[outport]
        network = self.network
        routing = network.routing

        hops = network.topology.hops_to(packet.routing_target)
        dvc.reserve(packet, now, link.latency, self.config.router_latency)
        link.occupy(now, packet.length)
        self.port_busy[vc.inport] = now + packet.length - 1
        packet.hops += 1
        if hops[neighbor.id] >= hops[self.id]:
            packet.misroutes += 1
        packet.current_request = None
        routing.on_hop(packet, self, outport)
        network.stats.count("flit_hops", packet.length)
        network.note_vc_released(self, vc)
        network.note_vc_reserved(neighbor, dvc)
        network.note_movement()

    def _grant_ejection(self, vc: VirtualChannel, outport: int,
                        now: int) -> None:
        """Deliver a packet to its destination NIC."""
        packet = vc.release(now)
        self.eject_busy[outport] = now + packet.length - 1
        self.port_busy[vc.inport] = now + packet.length - 1
        # Tail reaches the NIC after the 1-cycle local link plus serialization.
        packet.eject_cycle = now + 1 + packet.length - 1
        packet.current_request = None
        self.network.deliver(packet, self.id, outport, now)
        self.network.note_vc_released(self, vc)
        self.network.note_movement()

    def __repr__(self) -> str:
        return f"Router({self.id}, ports={sorted(self.out_links)})"
