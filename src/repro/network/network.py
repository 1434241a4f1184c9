"""Network assembly and the per-cycle datapath phases.

:class:`Network` instantiates routers, links and NICs from a topology, binds
the routing algorithm, and optionally attaches control planes (the SPIN
framework of :mod:`repro.core`, or baseline recovery schemes such as Static
Bubble).  It implements the phase hooks consumed by
:class:`repro.sim.engine.Simulator`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import NetworkConfig, SpinParams
from repro.errors import ConfigurationError
from repro.network.link import Link
from repro.network.nic import NetworkInterface
from repro.network.packet import Packet
from repro.network.plan import FabricPlan
from repro.network.router import (
    EJECT_PORT_BASE,
    INJECT_PORT_BASE,
    NEVER,
    Router,
)
from repro.network.vc import VirtualChannel
from repro.sim.rng import DeterministicRng
from repro.stats.collectors import NetworkStats
from repro.topology.base import Topology


class Network:
    """A complete simulated interconnection network.

    Args:
        topology: The router/channel structure.
        config: Datapath parameters.
        routing: A routing algorithm instance (bound to this network here).
        spin: SPIN parameters; pass None to run without the SPIN control
            plane — e.g. for deadlock avoidance baselines, or to
            demonstrate unrecovered deadlocks.
        control_planes: Additional control planes (e.g. Static Bubble); each
            must provide ``bind(network)`` and ``phase_control(cycle)``.
        seed: Seed for the network-local RNG (adaptive tie-breaks etc.).
    """

    #: Profiler part of this component's share of a phase (in ``inject``:
    #: NIC -> VC admission).
    profile_part = "network"

    def __init__(self, topology: Topology, config: NetworkConfig, routing,
                 spin: Optional[SpinParams] = None,
                 control_planes: Tuple = (),
                 seed: int = 0) -> None:
        self.topology = topology
        self.config = config
        self.routing = routing
        self.rng = DeterministicRng(seed).fork("network")
        self.stats = NetworkStats()
        self.now = 0

        #: The fabric's static layout, compiled once per topology instance
        #: and VC shape and shared by every network built on it; the
        #: objects below are this network's own, made by walking it.
        self.plan = plan = FabricPlan.of(topology, config)
        self.routers: List[Router] = [
            Router(router_id, config, plan, self)
            for router_id in range(topology.num_routers)
        ]
        routers = self.routers
        self.links: Dict[Tuple[int, int], Link] = {}
        for spec in topology.links():
            link = Link(spec.src, spec.src_port, spec.dst, spec.dst_port,
                        spec.latency)
            self.links[(spec.src, spec.src_port)] = link
            src = routers[spec.src]
            src.out_links[spec.src_port] = link
            src.out_neighbors[spec.src_port] = (routers[spec.dst],
                                                spec.dst_port)
        self.nics: List[NetworkInterface] = [
            NetworkInterface(node, router_id, local_index, config.num_vnets,
                             self)
            for node, (router_id, local_index) in enumerate(plan.nic_places)
        ]

        #: Cycle of the most recent flit movement (wedge detection).
        self.last_movement = 0
        self._allocation_offset = 0
        #: Nodes whose NIC may hold a queued packet (a superset: a NIC
        #: leaves it when ``phase_inject`` finds its queues empty).
        self.backlogged = set()
        #: ``VirtualChannel.freeze_epoch`` at the last ``phase_allocate``:
        #: a freeze or thaw since then wakes every router.
        self.freeze_epoch = VirtualChannel.freeze_epoch
        #: A :class:`repro.sim.profile.PhaseProfiler` for the object
        #: datapath's run/skip counts (set by the engine), or None.
        self.profiler = None

        #: Attached runtime fault injector (see :mod:`repro.faults`), if any.
        self.fault_injector = None
        #: Engine event sink (see :mod:`repro.sim.fastcore`): when set, VC
        #: reserve/release and router-wake events are forwarded so an
        #: event-driven engine can track activity without polling.
        self.engine_sink = None
        #: Number of directed links currently failed (fast path for the
        #: routing layer's dead-link filtering).
        self.dead_link_count = 0

        self.spin = None
        self.control_planes = list(control_planes)
        if spin is not None:
            from repro.core.framework import SpinFramework

            self.spin = SpinFramework(spin)
            self.control_planes.append(self.spin)
        for plane in self.control_planes:
            plane.bind(self)
        routing.bind(self)

    # ------------------------------------------------------------------
    # Phase hooks (see repro.sim.engine)
    # ------------------------------------------------------------------
    def phase_control(self, cycle: int) -> None:
        self.now = cycle
        for plane in self.control_planes:
            plane.phase_control(cycle)

    def phase_inject(self, cycle: int) -> None:
        backlogged = self.backlogged
        if not backlogged:
            return
        nics = self.nics
        skipped = 0
        # Node order; a NIC whose last attempt failed sleeps until its
        # inject port frees or a release at the port wakes it.
        for node in sorted(backlogged):
            nic = nics[node]
            if cycle < nic.wake:
                skipped += 1
                continue
            nic.try_inject(cycle)
            for queue in nic.queues:
                if queue:
                    break
            else:
                backlogged.discard(node)
        if self.profiler is not None:
            self.profiler.count_control("nic_attempts_skipped", skipped)

    def phase_allocate(self, cycle: int) -> None:
        routers = self.routers
        count = len(routers)
        offset = self._allocation_offset
        epoch = VirtualChannel.freeze_epoch
        if epoch != self.freeze_epoch:
            # A freeze or thaw: any router may have a VC that became ready.
            self.freeze_epoch = epoch
            for router in routers:
                router.wake = 0
        ran = 0
        # Rotating start (``routers[i]`` for ``i`` from ``offset - count``
        # wraps to ``offset``); a router sleeps until its ``wake``.
        for i in range(offset - count, offset):
            router = routers[i]
            if cycle >= router.wake:
                router.allocate(cycle)
                ran += 1
        self._allocation_offset = (offset + 1) % count
        if self.profiler is not None:
            self.profiler.count_control("router_cycles_run", ran)
            self.profiler.count_control("router_cycles_skipped", count - ran)

    def phase_collect(self, cycle: int) -> None:
        self.now = cycle + 1

    # ------------------------------------------------------------------
    # Datapath callbacks
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet, router_id: int, eject_port: int,
                now: int) -> None:
        """A packet reached its destination router's ejection port."""
        local_index = eject_port - EJECT_PORT_BASE
        try:
            node = self.topology.nodes_of_router(router_id)[local_index]
        except IndexError:
            raise ConfigurationError(
                f"no NIC with local index {local_index} at router {router_id}"
            ) from None
        self.stats.record_delivery(packet, now)
        self.nics[node].receive(packet, now)

    def eject_port_for(self, node: int) -> int:
        """Ejection-port index of a terminal node at its router."""
        return self.plan.eject_of[node]

    def note_vc_reserved(self, router: Router, vc: VirtualChannel) -> None:
        occupied = router.occupied
        router.occupied = occupied | vc.bit
        ready = vc.ready_at
        if not occupied or ready < router.wake:
            # The new packet cannot compete before ``ready_at``.
            router.wake = ready
        spin = self.spin
        if spin is not None:
            # Reschedule the router's SPIN controller (inlined: this runs
            # once per flit hop).
            spin.dirty[router.id] = 1
        if self.engine_sink is not None:
            self.engine_sink.vc_reserved(router, vc)

    def note_vc_released(self, router: Router, vc: VirtualChannel) -> None:
        occupied = router.occupied ^ vc.bit
        router.occupied = occupied
        if not occupied:
            router.wake = NEVER
        inport = vc.inport
        if inport >= INJECT_PORT_BASE:
            # An injection VC drains: its NIC may inject from ``free_at``.
            node = self.topology.nodes_of_router(router.id)[
                inport - INJECT_PORT_BASE]
            nic = self.nics[node]
            if vc.free_at < nic.wake:
                nic.wake = vc.free_at
        spin = self.spin
        if spin is not None:
            spin.dirty[router.id] = 1
        if self.engine_sink is not None:
            self.engine_sink.vc_released(router, vc)

    def wake_all(self) -> None:
        """Drop every router's sleep: each runs at the next
        ``phase_allocate`` and re-derives its wake time (an engine hands
        allocation back to this phase)."""
        for router in self.routers:
            router.wake = 0

    def plant_packet(self, router_id: int, inport: int, dst_router: int, *,
                     vnet: int = 0, vc_index: int = 0, length: int = 1,
                     now: int = 0, src_router: Optional[int] = None,
                     ready_at: Optional[int] = None) -> Packet:
        """Place a fully-arrived packet in the ``vc_index``-th VC of
        ``vnet`` at a router's (network or injection) ``inport``.

        The one way to set fabric state outside the datapath.  The packet
        runs between the first terminals of ``src_router`` (default: this
        router) and ``dst_router``; its head competes from ``ready_at``
        (default ``now``).  It fires the per-VC event a flit hop fires.
        """
        if src_router is None:
            src_router = router_id
        nodes_of = self.topology.nodes_of_router
        packet = Packet(src_node=nodes_of(src_router)[0],
                        dst_node=nodes_of(dst_router)[0],
                        src_router=src_router, dst_router=dst_router,
                        length=length, vnet=vnet, create_cycle=now)
        packet.inject_cycle = now
        router = self.routers[router_id]
        vc = router.vnet_slice(inport, vnet)[vc_index]
        vc.free_at = min(vc.free_at, now)
        vc.reserve(packet, now, link_latency=0, router_latency=0)
        if ready_at is not None:
            vc.ready_at = ready_at
        vc.tail_arrival = now
        self.note_vc_reserved(router, vc)
        self.stats.record_creation(packet, now)
        return packet

    def ring_defect(self, moves, now: int) -> Optional[str]:
        """Why the closed ring ``moves`` cannot spin at ``now``, or None.

        ``moves`` is a :meth:`rotate` list whose targets close the ring.
        The first defect in ring order wins: ``bad_port`` (no link at the
        out port), ``broken_chain`` (the link does not end at the target's
        input port) or ``link_busy`` (the link is dead, still streaming, or
        already taken by an earlier move of this ring — a link carries one
        flit per cycle, so a ring may cross each link once).
        """
        routers = self.routers
        taken = set()
        for vc, outport, target in moves:
            router = routers[vc.router]
            neighbor_entry = router.out_neighbors.get(outport)
            if neighbor_entry is None:
                return "bad_port"
            neighbor, dst_inport = neighbor_entry
            if neighbor.id != target.router or dst_inport != target.inport:
                return "broken_chain"
            key = (vc.router, outport)
            if key in taken or not router.out_links[outport].is_free(now):
                return "link_busy"
            taken.add(key)
        return None

    def rotate(self, moves, now: int) -> List[Packet]:
        """Move every packet of ``moves`` one hop at once (the spin).

        ``moves`` is an ordered list of ``(vc, outport, target_vc)``: the
        packet in ``vc`` leaves through ``outport`` and lands in
        ``target_vc``.  Every VC is released before any target is
        reserved, so a packet may land in the buffer another move vacates
        in the same cycle — no free buffer is needed (paper Sec. III).  A
        target that no move vacates must already be idle.  The caller
        checks that the move is legal (:meth:`ring_defect`).

        The one out-of-datapath packet mover of the control planes: it
        fires the per-VC events and counts what a flit hop counts, plus
        ``spin_hops``.  Returns the moved packets in ``moves`` order.
        """
        routers = self.routers
        packets = []
        for vc, outport, _target in moves:
            router = routers[vc.router]
            packet = vc.release(now)
            router.out_links[outport].occupy(now, packet.length)
            router.port_busy[vc.inport] = now + packet.length - 1
            self.note_vc_released(router, vc)
            packets.append(packet)
        min_hops = self.topology.min_hops
        router_latency = self.config.router_latency
        flits = 0
        for (vc, outport, target), packet in zip(moves, packets):
            router = routers[vc.router]
            was_min = min_hops(vc.router, packet.routing_target)
            # A vacated target was released above (its free_at is later
            # than now): the slot frees exactly as its resident drains.
            target.free_at = min(target.free_at, now)
            target.reserve(packet, now, router.out_links[outport].latency,
                           router_latency)
            packet.hops += 1
            packet.spins += 1
            if min_hops(target.router, packet.routing_target) >= was_min:
                packet.misroutes += 1
            packet.current_request = None
            self.routing.on_hop(packet, router, outport)
            flits += packet.length
            self.note_vc_reserved(routers[target.router], target)
        self.stats.count("flit_hops", flits)
        self.stats.count("spin_hops", len(moves))
        self.note_movement()
        return packets

    def wake_router(self, router_id: int) -> None:
        """Control work changed what this router's allocation would do —
        it froze or thawed a VC — without a VC event.

        The seam between the control planes and an engine that lets blocked
        routers sleep.  The object datapath's own sleep needs no call: a
        router there sleeps only while none of its unfrozen VCs is ready,
        and ``phase_allocate`` wakes every router after any freeze or thaw
        (``VirtualChannel.freeze_epoch``).
        """
        if self.engine_sink is not None:
            self.engine_sink.router_woken(router_id)

    def note_movement(self) -> None:
        self.last_movement = self.now

    # ------------------------------------------------------------------
    # Runtime fault support (see repro.faults)
    # ------------------------------------------------------------------
    def set_link_state(self, src: int, src_port: int, up: bool,
                       now: Optional[int] = None) -> bool:
        """Fail (or revive) one directed link at runtime.

        Updates the dead-link census, counts the event, and notifies the
        routing algorithm so table-based schemes can recompute around the
        failure.  Returns True if the state actually changed.

        Raises:
            ConfigurationError: If no such link exists.
        """
        link = self.links.get((src, src_port))
        if link is None:
            raise ConfigurationError("no such link", router=src,
                                     port=src_port)
        cycle = self.now if now is None else now
        if not link.set_state(up, cycle):
            return False
        self.dead_link_count += -1 if up else 1
        self.stats.count("link_up_events" if up else "link_down_events")
        self.routing.on_link_state_change(link, up, cycle)
        return True

    def set_channel_state(self, a: int, b: int, up: bool,
                          now: Optional[int] = None) -> int:
        """Fail (or revive) every directed link between two routers.

        Returns the number of directed links whose state changed.

        Raises:
            ConfigurationError: If the routers share no channel.
        """
        keys = [key for key, link in self.links.items()
                if {link.src, link.dst} == {a, b}]
        if not keys:
            raise ConfigurationError("routers share no channel", a=a, b=b)
        return sum(self.set_link_state(src, port, up, now)
                   for src, port in keys)

    def link_is_up(self, router_id: int, outport: int) -> bool:
        """Whether a router's output port has an alive link (ejection and
        injection ports are always up)."""
        link = self.links.get((router_id, outport))
        return link is None or link.up

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupied_vcs(self):
        """All (router, inport, vc) triples whose VC holds a packet."""
        for router in self.routers:
            if not router.occupied:
                continue
            for inport, vcs in router.all_inports():
                for vc in vcs:
                    if vc.packet is not None:
                        yield router, inport, vc

    def packets_in_flight(self) -> int:
        """Packets currently resident in some router VC."""
        return sum(1 for _ in self.occupied_vcs())

    def total_backlog(self) -> int:
        """Packets waiting in NIC injection queues."""
        return sum(nic.backlog() for nic in self.nics)

    def is_drained(self) -> bool:
        """No packets anywhere in the system."""
        return self.packets_in_flight() == 0 and self.total_backlog() == 0

    def idle_cycles(self) -> int:
        """Cycles since the last flit movement."""
        return self.now - self.last_movement

    def reset_link_utilization(self) -> None:
        """Restart link-utilization accounting (e.g. at measurement start)."""
        for link in self.links.values():
            link.reset_utilization(self.now)

    def mean_link_utilization(self):
        """Network-average (flit, SM, idle) link-cycle shares."""
        flit = sm = 0.0
        links = list(self.links.values())
        for link in links:
            f, s, _ = link.utilization(self.now)
            flit += f
            sm += s
        count = max(1, len(links))
        flit /= count
        sm /= count
        return flit, sm, max(0.0, 1.0 - flit - sm)
