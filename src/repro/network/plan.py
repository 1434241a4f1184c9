"""The fabric plan: every static table of a network, compiled once.

A simulated point needs fresh *state* — routers, virtual channels, links,
NICs, controllers, statistics, RNGs — but everything about its *shape* is a
pure function of the topology and of how many virtual channels sit behind a
port.  :class:`FabricPlan` is that shape: the validated topology, each
router's input ports in scan order, where every terminal attaches, and the
struct-of-arrays core's global VC id space with its arbitration keys and
upstream and NIC id rows.  One plan exists per ``(topology instance,
num_vnets, vcs_per_vnet)`` for the life of the topology;
:class:`~repro.network.network.Network` instantiates its objects by walking
it and :class:`~repro.sim.fastcore.soa.SoaCore` indexes it directly.

The plan is immutable: a frozen dataclass of tuples, shared by every point
of a process that runs the same fabric, so nothing a point does may depend
on — or leave a trace in — it.  The topology's own lazily filled rows
(``hops_to``, ``productive_ports``) are shared the same way and are pure
functions of the topology, so the order in which points fill them cannot
matter.

VC id space: router-major; within a router the network input ports in
first-link order, then the injection ports in local-index order (the order
of ``Router.all_inports()``, which fixes the allocation scan and through it
the RNG draw order); within a port, VC index order (vnet-major).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import NetworkConfig
from repro.errors import ConfigurationError
from repro.network.router import EJECT_PORT_BASE, INJECT_PORT_BASE
from repro.topology.base import Topology


@dataclass(frozen=True, eq=False)
class FabricPlan:
    """Static layout of one topology under one VC configuration.

    Attributes:
        topology: The validated topology (itself immutable).
        num_vnets: Virtual networks per port.
        vcs_per_vnet: VCs per virtual network.
        port_slots: Per port position in a router's scan, ``(index, vnet,
            bit)`` of each VC behind the port (vnet-major); ``bit`` is the
            VC's bit in its router's occupancy mask (``Router.occupied``):
            ``1 << i`` for the ``i``-th VC of the scan.
        net_ports: Per router, its network input ports in scan order.
        in_ports: Per router, all its input ports in scan order: the
            network ports, then the injection ports in local-index order.
        local_counts: Per router, how many terminals attach to it.
        nic_places: Per terminal node, its ``(router, local index)``.
        r_lo: First VC id of each router; ``r_lo[num_routers]`` is the
            total.
        vc_arbkey: Round-robin arbitration key of each VC id
            (``inport * 64 + index``).
        up_rid: Per VC id, the router upstream of its port (-1 behind an
            injection port).
        nic_of: Per VC id, the node injecting into its port (-1 behind a
            network port).
        eject_of: Ejection port of each terminal node at its router.
        rings: Per router, the scan slots of its network input VCs in
            (port, index) order, listed twice so that a walk from any
            position is one range: the SPIN detection pointer's
            round-robin ring over ``Router.occupied``.
    """

    topology: Topology
    num_vnets: int
    vcs_per_vnet: int
    port_slots: Tuple[Tuple[Tuple[int, int, int], ...], ...]
    net_ports: Tuple[Tuple[int, ...], ...]
    in_ports: Tuple[Tuple[int, ...], ...]
    local_counts: Tuple[int, ...]
    nic_places: Tuple[Tuple[int, int], ...]
    r_lo: Tuple[int, ...]
    vc_arbkey: Tuple[int, ...]
    up_rid: Tuple[int, ...]
    nic_of: Tuple[int, ...]
    eject_of: Tuple[int, ...]
    rings: Tuple[Tuple[int, ...], ...]

    @classmethod
    def of(cls, topology: Topology, config: NetworkConfig) -> "FabricPlan":
        """The plan of ``topology`` under ``config``, compiled on first use.

        Only ``num_vnets`` and ``vcs_per_vnet`` shape the layout; latencies
        and buffer depths are read from the config by the objects built on
        the plan.
        """
        key = (config.num_vnets, config.vcs_per_vnet)
        plan = topology.plans.get(key)
        if plan is None:
            plan = topology.plans[key] = cls._compile(topology, *key)
        return plan

    @classmethod
    def _compile(cls, topology: Topology, num_vnets: int,
                 vcs_per_vnet: int) -> "FabricPlan":
        topology.validate()
        count = topology.num_routers
        if topology.num_nodes < 1:
            raise ConfigurationError("topology attaches no terminal nodes")
        port_vcs = num_vnets * vcs_per_vnet

        # Network input ports in the order the links first reach them, and
        # the router on the far side of each.
        net_ports: List[List[int]] = [[] for _ in range(count)]
        upstream: Dict[Tuple[int, int], int] = {}
        for link in topology.links():
            upstream[(link.dst, link.dst_port)] = link.src
            net_ports[link.dst].append(link.dst_port)

        nic_places: List[Tuple[int, int]] = [(-1, -1)] * topology.num_nodes
        for rid in range(count):
            for local, node in enumerate(topology.nodes_of_router(rid)):
                nic_places[node] = (rid, local)

        in_ports = tuple(
            (*net_ports[rid],
             *(INJECT_PORT_BASE + local
               for local in range(len(topology.nodes_of_router(rid)))))
            for rid in range(count))
        r_lo = [0] * (count + 1)
        vc_inport: List[int] = []
        up_rid: List[int] = []
        nic_of: List[int] = []
        for rid in range(count):
            r_lo[rid] = len(vc_inport)
            for port in net_ports[rid]:
                vc_inport += [port] * port_vcs
                up_rid += [upstream[(rid, port)]] * port_vcs
                nic_of += [-1] * port_vcs
            for local, node in enumerate(topology.nodes_of_router(rid)):
                vc_inport += [INJECT_PORT_BASE + local] * port_vcs
                up_rid += [-1] * port_vcs
                nic_of += [node] * port_vcs
        r_lo[count] = len(vc_inport)

        # The detection ring of a router visits its network ports in port
        # order; a port's VCs sit in scan order behind its first slot.
        rings = []
        for ports in net_ports:
            ring = tuple(
                first + index
                for _, first in sorted((port, position * port_vcs)
                                       for position, port in enumerate(ports))
                for index in range(port_vcs))
            rings.append(ring + ring)
        return cls(
            topology=topology, num_vnets=num_vnets, vcs_per_vnet=vcs_per_vnet,
            port_slots=tuple(
                tuple((index, index // vcs_per_vnet,
                       1 << (position * port_vcs + index))
                      for index in range(port_vcs))
                for position in range(max(map(len, in_ports)))),
            net_ports=tuple(map(tuple, net_ports)),
            in_ports=in_ports,
            local_counts=tuple(len(topology.nodes_of_router(rid))
                               for rid in range(count)),
            nic_places=tuple(nic_places),
            r_lo=tuple(r_lo),
            # Every port holds ``port_vcs`` ids, so ``vid % port_vcs`` is the
            # VC's index behind its port.
            vc_arbkey=tuple(port * 64 + vid % port_vcs
                            for vid, port in enumerate(vc_inport)),
            up_rid=tuple(up_rid),
            nic_of=tuple(nic_of),
            eject_of=tuple(EJECT_PORT_BASE + local
                           for _, local in nic_places),
            rings=tuple(rings),
        )
