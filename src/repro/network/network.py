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

        self.routers: List[Router] = [
            Router(router_id, config) for router_id in range(topology.num_routers)
        ]
        self.links: Dict[Tuple[int, int], Link] = {}
        self._build_fabric()
        self.nics: List[NetworkInterface] = []
        self._build_nics()

        #: Cycle of the most recent flit movement (wedge detection).
        self.last_movement = 0
        self._allocation_offset = 0

        #: Attached runtime fault injector (see :mod:`repro.faults`), if any.
        self.fault_injector = None
        #: Engine event sink (see :mod:`repro.sim.fastcore`): when set, VC
        #: reserve/release and NIC-backlog events are forwarded so an
        #: event-driven engine can track activity without polling.
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
    # Construction
    # ------------------------------------------------------------------
    def _build_fabric(self) -> None:
        self.topology.validate()
        for link_spec in self.topology.links():
            link = Link(link_spec.src, link_spec.src_port,
                        link_spec.dst, link_spec.dst_port, link_spec.latency)
            self.links[(link_spec.src, link_spec.src_port)] = link
            src = self.routers[link_spec.src]
            dst = self.routers[link_spec.dst]
            src.out_links[link_spec.src_port] = link
            src.out_neighbors[link_spec.src_port] = (dst, link_spec.dst_port)
            if link_spec.dst_port not in dst.inports:
                dst.add_network_port(link_spec.dst_port)
        for router in self.routers:
            router.network = self

    def _build_nics(self) -> None:
        local_counts = [0] * len(self.routers)
        self._nic_index: Dict[Tuple[int, int], NetworkInterface] = {}
        for node in range(self.topology.num_nodes):
            router_id = self.topology.router_of_node(node)
            local_index = local_counts[router_id]
            local_counts[router_id] += 1
            self.routers[router_id].add_local_port(local_index)
            nic = NetworkInterface(node, router_id, local_index,
                                   self.config.num_vnets)
            nic.network = self
            self.nics.append(nic)
            self._nic_index[(router_id, local_index)] = nic
        if not self.nics:
            raise ConfigurationError("topology attaches no terminal nodes")

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
        nic = self._nic_at(router_id, local_index)
        self.stats.record_delivery(packet, now)
        nic.receive(packet, now)

    def _nic_at(self, router_id: int, local_index: int) -> NetworkInterface:
        try:
            return self._nic_index[(router_id, local_index)]
        except KeyError:
            raise ConfigurationError(
                f"no NIC with local index {local_index} at router {router_id}"
            ) from None

    def eject_port_for(self, node: int) -> int:
        """Ejection-port index of a terminal node at its router."""
        return EJECT_PORT_BASE + self.nics[node].local_index

    def note_vc_reserved(self, router: Router, vc=None) -> None:
        router.active_vcs += 1
        if self.engine_sink is not None:
            self.engine_sink.vc_reserved(router, vc)

    def note_vc_released(self, router: Router, vc=None) -> None:
        router.active_vcs -= 1
        if self.engine_sink is not None:
            self.engine_sink.vc_released(router, vc)

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
