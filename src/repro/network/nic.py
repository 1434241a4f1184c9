"""Network interface controllers (NICs).

One NIC per terminal node.  A NIC owns per-vnet injection queues and pushes
queued packets into its router's injection-port VCs; on the ejection side it
accepts packets without stalls (the paper's NICs "eject flits without any
stalls") and optionally generates protocol replies for request/response
traffic (used by the PARSEC proxy workloads).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.network.packet import Packet
from repro.network.router import INJECT_PORT_BASE, NEVER


class NetworkInterface:
    """Injection/ejection endpoint for one terminal node."""

    def __init__(self, node: int, router_id: int, local_index: int,
                 num_vnets: int, network=None) -> None:
        self.node = node
        self.router_id = router_id
        self.local_index = local_index
        self.inject_port = INJECT_PORT_BASE + local_index
        self.queues: List[Deque[Packet]] = [deque() for _ in range(num_vnets)]
        #: Round-robin pointer across vnet queues.
        self._next_vnet = 0
        self.network = network
        #: Packets created at this NIC (for stats).
        self.packets_created = 0
        #: Packets delivered to this NIC.
        self.packets_received = 0
        #: Peak injection-queue backlog observed.
        self.peak_backlog = 0
        #: First cycle ``Network.phase_inject`` tries this NIC again: set
        #: by ``try_inject`` to when its inject port or a VC it may use
        #: frees; reset by ``enqueue`` and lowered by a release at the port.
        self.wake = 0
        #: ``(router, the VCs of its injection port, VCs per vnet)``,
        #: looked up by the first ``try_inject``.
        self._port = None

    def enqueue(self, packet: Packet) -> None:
        """Queue a freshly created packet for injection."""
        self.queues[packet.vnet].append(packet)
        self.packets_created += 1
        network = self.network
        if network is not None:
            # Try to inject at the next ``Network.phase_inject``.
            network.backlogged.add(self.node)
            self.wake = 0
        backlog = sum(len(q) for q in self.queues)
        if backlog > self.peak_backlog:
            self.peak_backlog = backlog

    def backlog(self) -> int:
        """Packets waiting in the injection queues."""
        return sum(len(queue) for queue in self.queues)

    def try_inject(self, now: int) -> Optional[Packet]:
        """Inject at most one queued packet into the router this cycle.

        Vnet queues are served round-robin; a packet enters the first idle
        VC (among the classes its routing algorithm permits) of this NIC's
        injection port.  Sets :attr:`wake`: no attempt before it can
        succeed unless a VC at the port is released or a packet is queued.
        A failed attempt changes nothing else.

        Returns:
            The injected packet, or None.
        """
        network = self.network
        port = self._port
        if port is None:
            router = network.routers[self.router_id]
            port = self._port = (router, router.vcs_at(self.inject_port),
                                 router.config.vcs_per_vnet)
        router, port_vcs, width = port
        port_busy = router.port_busy
        busy = port_busy[self.inject_port]
        if now <= busy:
            self.wake = busy + 1
            return None
        wake = NEVER
        queues = self.queues
        num_vnets = len(queues)
        for offset in range(num_vnets):
            vnet = (self._next_vnet + offset) % num_vnets
            queue = queues[vnet]
            if not queue:
                continue
            packet = queue[0]
            choices = network.routing.injection_vc_choices(packet)
            base = packet.vnet * width
            vc = None
            for idx in choices:
                candidate = port_vcs[base + idx]
                if candidate.packet is None:
                    if now >= candidate.free_at:
                        vc = candidate
                        break
                    if candidate.free_at < wake:
                        wake = candidate.free_at
            if vc is None:
                continue
            queue.popleft()
            self._next_vnet = (vnet + 1) % num_vnets
            network.routing.on_inject(packet, now)
            vc.reserve(packet, now, link_latency=1,
                       router_latency=router.config.router_latency)
            port_busy[self.inject_port] = now + packet.length - 1
            self.wake = now + packet.length
            packet.inject_cycle = now
            network.note_vc_reserved(router, vc)
            network.stats.record_injection(packet, now)
            return packet
        self.wake = wake
        return None

    def receive(self, packet: Packet, now: int) -> None:
        """Accept a delivered packet; generate a reply if one is owed."""
        self.packets_received += 1
        if packet.reply_length > 0:
            reply = Packet(
                src_node=self.node,
                dst_node=packet.src_node,
                src_router=self.router_id,
                dst_router=packet.src_router,
                length=packet.reply_length,
                vnet=min(packet.vnet + 1, len(self.queues) - 1),
                create_cycle=now,
            )
            reply.measured = packet.measured
            self.enqueue(reply)

    def __repr__(self) -> str:
        return f"NIC(node={self.node}, router={self.router_id})"
