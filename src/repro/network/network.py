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
from repro.network.router import EJECT_PORT_BASE, Router
from repro.sim.rng import DeterministicRng
from repro.stats.collectors import NetworkStats
from repro.topology.base import Topology


class Network:
    """A complete simulated interconnection network.

    Args:
        topology: The router/channel structure.
        config: Datapath parameters.
        routing: A routing algorithm instance (bound to this network here).
        spin: SPIN parameters; pass None (or ``SpinParams(enabled=False)``)
            to run without the SPIN control plane — e.g. for deadlock
            avoidance baselines, or to demonstrate unrecovered deadlocks.
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

        #: Attached runtime fault injector (see :mod:`repro.faults`), if any.
        self.fault_injector = None
        #: Engine event sink (see :mod:`repro.sim.fastcore`): when set, VC
        #: reserve/release, NIC-backlog and router-wake events are forwarded
        #: so an event-driven engine can track activity without polling.
        self.engine_sink = None
        #: Number of directed links currently failed (fast path for the
        #: routing layer's dead-link filtering).
        self.dead_link_count = 0

        self.spin = None
        self.control_planes = list(control_planes)
        if spin is not None and spin.enabled:
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
        for nic in self.nics:
            for queue in nic.queues:
                if queue:
                    nic.try_inject(cycle)
                    break

    def phase_allocate(self, cycle: int) -> None:
        routers = self.routers
        offset = self._allocation_offset
        # Rotating start; a router that holds no packet has nothing to
        # allocate (a grant earlier in this walk may still wake it).
        for router in routers[offset:] + routers[:offset]:
            if router.active_vcs:
                router.allocate(cycle)
        self._allocation_offset = (offset + 1) % len(routers)

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

    def note_vc_reserved(self, router: Router, vc=None) -> None:
        router.active_vcs += 1
        spin = self.spin
        if spin is not None:
            # Reschedule the router's SPIN controller (inlined: this runs
            # once per flit hop).  A vc-less planting event may stand for
            # edits anywhere.
            if vc is None:
                spin.dirty_all()
            else:
                spin.dirty[router.id] = 1
        if self.engine_sink is not None:
            self.engine_sink.vc_reserved(router, vc)

    def note_vc_released(self, router: Router, vc=None) -> None:
        router.active_vcs -= 1
        spin = self.spin
        if spin is not None:
            if vc is None:
                spin.dirty_all()
            else:
                spin.dirty[router.id] = 1
        if self.engine_sink is not None:
            self.engine_sink.vc_released(router, vc)

    def wake_router(self, router_id: int) -> None:
        """Control work changed what this router's allocation would do —
        it froze or thawed a VC — without a VC event.

        The seam between the control planes and an engine that lets blocked
        routers sleep; the reference schedule allocates every occupied
        router every cycle and needs no waking.
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
            if router.active_vcs == 0:
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
