"""Struct-of-arrays allocation core for the ``fast`` engine's active regions.

The idle-skip layer (:mod:`repro.sim.fastcore.simulator`) makes *quiescent*
routers free; this module makes *active* routers cheap.  :class:`SoaCore`
advances the ``allocate`` phase with the reference datapath inlined: it
walks each router's occupancy mask (``Router.occupied``) over the router's
VCs in scan order, looks downstream through precombined candidate entries
(per-vnet downstream VC rows from ``Router.downstream_vcs``), and keeps
per-router dirty bits and wake times so that a router with nothing to do
costs nothing.  Injection stays the object datapath's own
(``NetworkInterface.try_inject``).  Everything static it indexes (the VC id
space, arbitration keys, upstream and NIC id rows) is the network's
:class:`~repro.network.plan.FabricPlan`, compiled once per fabric and shared
between points.

One copy of state
-----------------

The core keeps no copy of datapath state.  It reads the authoritative
objects (``Router``, ``VirtualChannel``, ``Link``, ``Packet``) and every
grant writes them exactly as ``Router._grant_network`` /
``_grant_ejection`` / ``VirtualChannel.reserve`` would, so observers, the
invariant oracle, golden traces and the SPIN controllers see identical
state at every phase boundary.  What the core does keep is its own
schedule — ``r_dirty`` / ``r_wake`` per router — and the network's
``note_vc_reserved`` / ``note_vc_released`` event funnel (every grant,
spin, plant and fault goes through it) marks a router dirty or re-arms the
upstream router's wake time.  Controllers freeze and thaw without a VC
event and say so through ``Network.wake_router``.

A VC's id (``vid``) is its router's ``plan.r_lo`` plus its slot in the
router's scan (the bit position of ``VirtualChannel.bit``); the core uses
it only to index the plan's arbitration keys and upstream/NIC rows.

Decision inlining (valid only under the simulator's routing whitelist —
base-class ``decide``/``select``/``wait_choice``/VC policies and a no-op
``on_hop`` hook):

* ejection short-path for packets at their destination;
* single-candidate requests skip ``select`` entirely;
* multi-candidate requests scan downstream idle state and draw from
  ``routing.rng`` *exactly* when the reference free-list is non-empty
  (same list, same order, same bound RNG method);
* fully-blocked packets keep their sticky previous request without any
  call; the rare remaining shapes (phase-0 packets, invalidated sticky
  requests) fall through to the real ``routing.decide``.

Wake analysis follows the idle-skip layer: a router that issued no request
and consumed no randomness sleeps until the earliest time anything it
waits on could change; release events from downstream re-arm it earlier.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.router import EJECT_PORT_BASE

#: Sentinel wake time meaning "never (until an event)".
_NEVER = 1 << 60


class _OutInfo(dict):
    """``SoaCore.outinfo``: entries are built on first lookup from this
    network's links and ``Router.downstream_vcs`` rows (``KeyError`` for
    anything but a network output port)."""

    def __init__(self, core: "SoaCore") -> None:
        super().__init__()
        self._core = core

    def __missing__(self, key: Tuple[int, int]) -> tuple:
        rid, outport = key
        router = self._core.routers[rid]
        link = router.out_links[outport]
        entry = self[key] = (outport, link, tuple(
            router.downstream_vcs(outport, vnet)
            for vnet in range(self._core.plan.num_vnets)))
        return entry


class SoaCore:
    """The inlined allocate phase for one network, with its per-router
    dirty/wake schedule."""

    def __init__(self, net) -> None:
        self.net = net
        self.routing = net.routing
        self.routers = net.routers
        self.nics = net.nics
        self.router_latency = net.config.router_latency
        #: Bound ``random.Random.choice`` of the routing RNG — the exact
        #: method ``RoutingAlgorithm.select`` draws from.
        self.rng_choice = net.routing.rng._random.choice
        self._count_event = net.stats.count

        # Static layout: the network's fabric plan, shared by every point
        # on the same fabric (global VC id space in ``all_inports()`` scan
        # order, which fixes the reference request-scan order and, through
        # it, the RNG draw order).
        plan = net.plan
        self.plan = plan
        count = len(self.routers)
        self.router_count = count
        #: First VC id of each router: a VC's id is this plus its slot.
        self.r_lo = plan.r_lo
        self.vc_arbkey = plan.vc_arbkey
        #: Upstream router per vid (release events re-arm the upstream
        #: router's wake time) and owning NIC per injection-port vid (the
        #: inlined release lowers that NIC's ``wake``).
        self.up_rid = plan.up_rid
        self.nic_of = plan.nic_of
        #: Ejection port per terminal node.
        self.eject_of = plan.eject_of

        #: ``(router, outport) -> (outport, link, per-vnet downstream VC
        #: rows)``, each built the first time something looks through the
        #: port.
        self.outinfo = _OutInfo(self)

        # Candidate info per (router, routing target): an ``(entries,
        # ports)`` pair where ``entries`` are outinfo tuples and ``ports``
        # the raw candidate tuple (for the sticky-request test).
        # Row-indexed by target router id — this lookup runs once per
        # active VC per cycle, so it avoids tuple-key hashing.  A router's
        # row is allocated, and each slot filled, by the first packet that
        # needs it (candidate sets depend only on static topology for
        # whitelisted algorithms).
        self.cand_rows: List[Optional[List[Optional[tuple]]]] = [None] * count

        # Hop-distance rows per routing target (``Topology.hops_to``),
        # fetched lazily.
        self._hops: Dict[int, Sequence[int]] = {}

        # The schedule: every router runs at the first allocate phase.
        self.r_dirty = bytearray(b"\x01" * count)
        self.r_wake = [0] * count
        self.r_any_dirty = True
        self.r_min_wake = 0
        #: The SPIN framework's per-controller dirty bits (its own object,
        #: not a copy): the inlined VC events below set them the way
        #: ``Network.note_vc_reserved`` / ``note_vc_released`` would.
        self.ctrl_dirty = (net.spin.dirty if net.spin is not None
                           else bytearray(count))

    def _hop_row(self, target: int) -> Sequence[int]:
        row = self._hops.get(target)
        if row is None:
            row = self._hops[target] = self.net.topology.hops_to(target)
        return row

    # ------------------------------------------------------------------
    # The network's engine sink: its VC events and ``wake_router``
    # ------------------------------------------------------------------
    def vc_reserved(self, router, vc) -> None:
        """A VC was reserved (fields already settled on the object)."""
        self.r_dirty[router.id] = 1
        self.r_any_dirty = True

    def vc_released(self, router, vc) -> None:
        """A VC was released (``free_at`` already settled on the object;
        ``Network.note_vc_released`` has lowered its NIC's ``wake``)."""
        rid = router.id
        self.r_dirty[rid] = 1
        self.r_any_dirty = True
        uid = self.up_rid[self.r_lo[rid] + vc.bit.bit_length() - 1]
        free = vc.free_at
        if uid >= 0 and self.r_wake[uid] > free:
            self.r_wake[uid] = free
            if self.r_min_wake > free:
                self.r_min_wake = free

    def router_woken(self, router_id: int) -> None:
        """Control work froze or thawed a VC at this router."""
        self.r_dirty[router_id] = 1
        self.r_any_dirty = True

    # ------------------------------------------------------------------
    # Phase: allocate (inlined Router.allocate + grants + wake analysis)
    # ------------------------------------------------------------------
    def router_cycle(self, rid: int, cycle: int) -> None:
        """One allocation cycle of one router.

        Semantically a line-for-line replica of ``Router.allocate`` (route
        compute over ready unfrozen VCs, separable switch allocation with
        round-robin output arbitration, grant timing) with the module-level
        decision inlining; ends by computing the router's next wake time.
        """
        r_dirty = self.r_dirty
        r_dirty[rid] = 0
        router = self.routers[rid]
        mask = router.occupied
        if not mask:
            self.r_wake[rid] = _NEVER
            return
        routing = self.routing
        scan = router._scan
        lo = self.r_lo[rid]
        vc_arbkey = self.vc_arbkey
        eject_of = self.eject_of
        port_busy = router.port_busy
        cand_row = self.cand_rows[rid]
        if cand_row is None:
            cand_row = self.cand_rows[rid] = [None] * self.router_count
        requests: Dict[int, list] = {}
        decide_called = False
        wake = _NEVER
        next_cycle = cycle + 1
        # The occupied VCs in scan order, lowest set bit first.
        while mask:
            low = mask & -mask
            mask ^= low
            slot = low.bit_length() - 1
            vc = scan[slot]
            packet = vc.packet
            if packet is None or vc.frozen:
                continue
            ready_at = vc.ready_at
            if cycle < ready_at:
                if ready_at < wake:
                    wake = ready_at
                continue
            request = packet.current_request
            if packet.phase == 1 and packet.dst_router == rid:
                outport = eject_of[packet.dst_node]
                packet.current_request = outport
                t = port_busy[vc.inport]
                eject = router.eject_busy[outport]
                if eject > t:
                    t = eject
                t += 1
                if t < wake:
                    wake = t
            elif packet.phase == 0:
                # Non-minimal phase-0 packets mutate phase inside
                # reached_phase_target; not worth inlining (whitelisted
                # algorithms never create them).
                outport = routing.decide(router, vc.inport, packet, cycle)
                decide_called = True
            else:
                cached = cand_row[packet.dst_router]
                if cached is None:
                    cached = self._compile_candidates(router, packet,
                                                      cand_row)
                entries, ports = cached
                vnet = packet.vnet
                if len(entries) == 1:
                    entry = entries[0]
                    outport = entry[0]
                    packet.current_request = outport
                    # Wake: next grant opportunity through this port.
                    idle = False
                    earliest = _NEVER
                    for dvc in entry[2][vnet]:
                        if dvc.packet is None:
                            free = dvc.free_at
                            if free <= cycle:
                                idle = True
                                break
                            if free < earliest:
                                earliest = free
                    if idle:
                        if next_cycle < wake:
                            wake = next_cycle
                    elif earliest < wake:
                        wake = earliest
                elif entries:
                    # Inlined RoutingAlgorithm.select: the free list in
                    # candidate order, then the same RNG draw.
                    free_ports = []
                    earliest = _NEVER
                    for entry in entries:
                        for dvc in entry[2][vnet]:
                            if dvc.packet is None:
                                free = dvc.free_at
                                if free <= cycle:
                                    free_ports.append(entry[0])
                                    break
                                if free < earliest:
                                    earliest = free
                    if free_ports:
                        if len(free_ports) == 1:
                            outport = free_ports[0]
                        else:
                            outport = self.rng_choice(free_ports)
                        packet.current_request = outport
                        decide_called = True
                    elif request is not None and request in ports:
                        # Sticky while fully blocked: select() would return
                        # the previous request unchanged.
                        outport = request
                        if earliest < wake:
                            wake = earliest
                    else:
                        # First decision (or an invalidated sticky request)
                        # with every permitted VC busy: inlined wait_choice —
                        # the candidate whose downstream VCs have the least
                        # "active for" time, ties to the lower port.  Empty
                        # (draining) VCs count as age 0, like active_time().
                        best_age = _NEVER
                        outport = -1
                        for entry in entries:
                            age = _NEVER
                            for dvc in entry[2][vnet]:
                                if dvc.packet is not None:
                                    a = cycle - dvc.active_since
                                else:
                                    a = 0
                                if a < age:
                                    age = a
                                    if a == 0:
                                        break
                            if age < best_age:
                                best_age = age
                                outport = entry[0]
                        packet.current_request = outport
                        if earliest < wake:
                            wake = earliest
                else:
                    outport = routing.decide(router, vc.inport, packet,
                                             cycle)
                    decide_called = True
            if outport is None:
                continue
            if cycle > port_busy[vc.inport]:
                vid = lo + slot
                item = (vc_arbkey[vid], vid, vc)
                bucket = requests.get(outport)
                if bucket is None:
                    requests[outport] = [item]
                else:
                    bucket.append(item)

        if requests:
            self._grant(router, rid, requests, cycle)

        if decide_called or r_dirty[rid]:
            # Randomness/selection was exercised, or our own grants moved
            # packets (their bookkeeping re-dirties this router): re-run
            # next cycle.
            self.r_wake[rid] = next_cycle
        else:
            self.r_wake[rid] = wake

    def _compile_candidates(self, router, packet, cand_row) -> tuple:
        """Build and cache the candidate info for one (router, target)."""
        ports = tuple(self.routing.candidate_outports(router, packet))
        outinfo = self.outinfo
        rid = router.id
        try:
            entries = tuple([outinfo[(rid, port)] for port in ports])
        except KeyError:
            # A candidate that is not a plain network port (should not
            # happen for whitelisted algorithms): refuse to inline.
            entries = ()
        cached = (entries, ports)
        cand_row[packet.dst_router] = cached
        return cached

    def _grant(self, router, rid: int, requests: Dict[int, list],
               cycle: int) -> None:
        """Separable output-port arbitration + grants over one request set.

        Inlines ``Router._arbitrate``/``_grant_network``/``_grant_ejection``
        with identical field writes and event bookkeeping.
        """
        net = self.net
        routers = self.routers
        r_dirty = self.r_dirty
        ctrl_dirty = self.ctrl_dirty
        r_wake = self.r_wake
        nics = self.nics
        up_rid = self.up_rid
        nic_of = self.nic_of
        rr = router._rr
        router_latency = self.router_latency
        hop_row_of = self._hops.get
        granted_inports = set()
        moved = False
        flit_hops = 0
        for outport in sorted(requests):
            bucket = requests[outport]
            ejection = outport >= EJECT_PORT_BASE
            if ejection:
                if cycle <= router.eject_busy[outport]:
                    continue
                link = None
                entry = None
            else:
                entry = self.outinfo[(rid, outport)]
                link = entry[1]
                if not (link.up and cycle > link.busy_until):
                    continue
            viable = []
            for item in bucket:
                vc = item[2]
                if vc.inport in granted_inports:
                    continue
                if ejection:
                    viable.append((item[0], item[1], vc, None))
                else:
                    for dvc in entry[2][vc.packet.vnet]:
                        if dvc.packet is None and dvc.free_at <= cycle:
                            viable.append((item[0], item[1], vc, dvc))
                            break
            if not viable:
                continue
            # Round-robin arbitration (Router._arbitrate): stable order by
            # (inport, index) == arbkey, first key at/after the pointer.
            if len(viable) == 1:
                key, vid, vc, dvc = viable[0]
            else:
                viable.sort()
                pointer = rr.get(outport, 0)
                chosen = viable[0]
                for item in viable:
                    if item[0] >= pointer:
                        chosen = item
                        break
                key, vid, vc, dvc = chosen
            rr[outport] = key + 1
            granted_inports.add(vc.inport)
            moved = True

            # --- release the winner (VirtualChannel.release) ---
            packet = vc.packet
            length = packet.length
            vc.packet = None
            free = cycle + length
            vc.free_at = free
            if vc.frozen:
                vc.clear_freeze()
            router.port_busy[vc.inport] = free - 1
            packet.current_request = None
            # note_vc_released(router, vc), inlined with the known vid.
            router.occupied ^= vc.bit
            r_dirty[rid] = 1
            ctrl_dirty[rid] = 1
            uid = up_rid[vid]
            if uid >= 0:
                if r_wake[uid] > free:
                    r_wake[uid] = free
                    if self.r_min_wake > free:
                        self.r_min_wake = free
            else:
                node = nic_of[vid]
                if node >= 0 and nics[node].wake > free:
                    nics[node].wake = free

            if ejection:
                # --- Router._grant_ejection ---
                router.eject_busy[outport] = free - 1
                packet.eject_cycle = free
                net.deliver(packet, rid, outport, cycle)
            else:
                # --- Router._grant_network ---
                target = packet.routing_target
                row = hop_row_of(target)
                if row is None:
                    row = self._hop_row(target)
                was_min = row[rid]
                latency = link.latency
                # dvc.reserve(packet, cycle, latency, router_latency);
                # idleness checked above.
                dvc.packet = packet
                dvc.head_arrival = cycle + latency
                dvc.ready_at = cycle + latency + router_latency
                dvc.tail_arrival = cycle + latency + length - 1
                dvc.active_since = cycle
                link.busy_until = cycle + length - 1
                link.flit_cycles += length
                packet.hops += 1
                nrid = dvc.router
                if row[nrid] >= was_min:
                    packet.misroutes += 1
                # routing.on_hop: base no-op under the whitelist.
                flit_hops += length
                # note_vc_reserved(neighbor, dvc), inlined.
                routers[nrid].occupied |= dvc.bit
                r_dirty[nrid] = 1
                ctrl_dirty[nrid] = 1
        if flit_hops:
            # One aggregated increment per router per cycle; the counter's
            # final value matches the reference's per-grant increments.
            self._count_event("flit_hops", flit_hops)
        if moved:
            net.last_movement = cycle
            self.r_any_dirty = True
