"""Struct-of-arrays allocation core for the ``fast`` engine's active regions.

The idle-skip layer (:mod:`repro.sim.fastcore.simulator`) makes *quiescent*
routers free; this module makes *active* routers cheap.  :class:`SoaCore`
runs the network over integer-indexed tables — a global VC id space with
occupancy/ready/credit mirrors, per-router active-VC rows, precombined
candidate entries with downstream-VC id slices, arbitration keys and lazy
hop-distance rows — and advances the hot phases (``allocate``, ``inject``)
over those tables with the reference datapath inlined.  Everything static
among them (the id space, arbitration keys, upstream/NIC/downstream id rows)
is the network's :class:`~repro.network.plan.FabricPlan`, compiled once per
fabric and shared between points; a core builds only what refers to its own
network's objects and state.

Authority and synchronization contract
--------------------------------------

The reference objects (``Router``, ``VirtualChannel``, ``Link``, ``Packet``)
stay **authoritative**: every grant writes them exactly as
``Router._grant_network`` / ``_grant_ejection`` / ``VirtualChannel.reserve``
would, so observers, the invariant oracle, golden traces and the SPIN
controllers see identical state at every phase boundary.  The compiled
tables are *mirrors*, kept in sync through the same ``note_vc_reserved`` /
``note_vc_released`` event funnel the idle-skip layer already relies on:

* ``vc_pkt[vid]``   — occupancy bitmap; authoritative whenever consulted.
* ``vc_ready[vid]`` — ``ready_at`` mirror; only consulted while occupied
  (synced by the reserve event, after the object's fields settle).
* ``vc_free[vid]``  — ``free_at`` mirror; only consulted while *empty*
  (synced by the release event).  Control planes that *lower* ``free_at``
  immediately before re-reserving a VC (the spin executor, the proactive
  and centralized planes) leave a stale-high mirror behind an occupied
  bitmap bit, which is never read.
* ``frozen`` and ``packet`` contents are always read from the objects —
  controllers freeze/unfreeze without datapath events.

A legacy *vc-less* event (golden/model scenarios plant deadlocks by mutating
VC fields directly, then fire ``note_vc_reserved(router)``) triggers
:meth:`resync`, a full rebuild of every dynamic table from the objects.
:meth:`verify_against_objects` checks the whole mirror invariant and backs
the round-trip property tests.

Decision inlining (valid only under the simulator's routing whitelist —
base-class ``decide``/``select``/``wait_choice``/VC policies and no-op
``on_hop``/``on_inject`` hooks):

* ejection short-path for packets at their destination;
* single-candidate requests skip ``select`` entirely;
* multi-candidate requests scan downstream idle state via the mirrors and
  draw from ``routing.rng`` *exactly* when the reference free-list is
  non-empty (same list, same order, same bound RNG method);
* fully-blocked packets keep their sticky previous request without any
  call; the rare remaining shapes (phase-0 packets, invalidated sticky
  requests) fall through to the real ``routing.decide``.

Wake analysis mirrors the idle-skip layer: a router that issued no request
and consumed no randomness sleeps until the earliest mirror-derived time
anything could change; release events from downstream re-arm it earlier.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.router import EJECT_PORT_BASE

#: Sentinel wake time meaning "never (until an event)".
_NEVER = 1 << 60


def _vc_rows(vc_obj: list, vid_rows) -> tuple:
    """The VC objects behind per-vnet rows of (contiguous) VC ids."""
    return tuple(tuple(vc_obj[row[0]:row[-1] + 1]) for row in vid_rows)


class _OutInfo(dict):
    """``SoaCore.outinfo``: entries are built on first lookup from the
    plan's downstream rows and this network's links and VC objects
    (``KeyError`` for anything but a network output port)."""

    def __init__(self, core: "SoaCore") -> None:
        super().__init__()
        self._core = core

    def __missing__(self, key: Tuple[int, int]) -> tuple:
        rid, outport = key
        core = self._core
        neighbor, _, dvids_v = core.plan.down[rid][outport]
        entry = self[key] = (
            outport, core.routers[rid].out_links[outport], neighbor,
            _vc_rows(core.vc_obj, dvids_v), dvids_v)
        return entry


class SoaCore:
    """Compiled flat-table state + inlined hot phases for one network."""

    #: Stands in for the network's hooks, so it profiles under its part.
    profile_part = "network"

    def __init__(self, net) -> None:
        self.net = net
        self.routing = net.routing
        self.routers = net.routers
        self.nics = net.nics
        self.stats = net.stats
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
        self.vc_arbkey = plan.vc_arbkey
        #: Upstream router per vid (release events re-arm the upstream
        #: router's wake time) and owning NIC per injection-port vid.
        self.up_rid = plan.up_rid
        self.nic_of = plan.nic_of
        #: Ejection port per terminal node.
        self.eject_of = plan.eject_of
        self.inj_port = plan.inj_port
        self.inj_rid = plan.inj_rid
        self.inj_vids = plan.inj_vids

        # This network's objects behind the plan's ids.
        vc_obj = [vc for router in self.routers for vc in router._scan]
        self.vc_obj = vc_obj
        self.vid_of: Dict[int, int] = {
            id(vc): vid for vid, vc in enumerate(vc_obj)}
        self.inj_vcs = [_vc_rows(vc_obj, rows) for rows in plan.inj_vids]
        #: ``(router, outport) -> (outport, link, neighbor router id,
        #: per-vnet downstream VC rows, per-vnet downstream vid rows)``,
        #: each built the first time something looks through the port.
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

        # Dynamic rows (contents rebuilt by resync()).
        nvcs = len(vc_obj)
        self.vc_pkt = bytearray(nvcs)
        self.vc_ready = [0] * nvcs
        self.vc_free = [0] * nvcs
        self.active: List[List[int]] = [[] for _ in range(count)]
        self.r_dirty = bytearray(count)
        self.r_wake = [0] * count
        self.r_any_dirty = True
        self.r_min_wake = 0
        #: The SPIN framework's per-controller dirty bits (its own object,
        #: not a mirror): the inlined VC events below set them the way
        #: ``Network.note_vc_reserved`` / ``note_vc_released`` would.
        self.ctrl_dirty = (net.spin.dirty if net.spin is not None
                           else bytearray(count))
        self.nic_wake = [0] * len(net.nics)
        self.active_nics = set()
        self.occupied = 0
        self.resyncs = 0
        self.resync()

    def _hop_row(self, target: int) -> Sequence[int]:
        row = self._hops.get(target)
        if row is None:
            row = self._hops[target] = self.net.topology.hops_to(target)
        return row

    # ------------------------------------------------------------------
    # Mirror synchronization (event funnel + full resync)
    # ------------------------------------------------------------------
    def on_reserved(self, router, vc) -> None:
        """A VC was reserved (fields already settled on the object)."""
        rid = router.id
        self.occupied += 1
        self.r_dirty[rid] = 1
        self.r_any_dirty = True
        vid = self.vid_of[id(vc)]
        self.vc_pkt[vid] = 1
        self.vc_ready[vid] = vc.ready_at
        insort(self.active[rid], vid)

    def on_released(self, router, vc) -> None:
        """A VC was released (``free_at`` already settled on the object)."""
        rid = router.id
        self.occupied -= 1
        self.r_dirty[rid] = 1
        self.r_any_dirty = True
        vid = self.vid_of[id(vc)]
        self.vc_pkt[vid] = 0
        free = vc.free_at
        self.vc_free[vid] = free
        self.active[rid].remove(vid)
        uid = self.up_rid[vid]
        if uid >= 0:
            if self.r_wake[uid] > free:
                self.r_wake[uid] = free
                if self.r_min_wake > free:
                    self.r_min_wake = free
        else:
            node = self.nic_of[vid]
            if node >= 0 and self.nic_wake[node] > free:
                self.nic_wake[node] = free

    def nic_backlogged(self, node: int) -> None:
        self.active_nics.add(node)
        # A new head-of-queue packet may target a different vnet whose VCs
        # are idle: re-attempt immediately.
        self.nic_wake[node] = 0

    def resync(self) -> None:
        """Rebuild every dynamic table from the authoritative objects.

        Used at compile time and after a legacy *vc-less* event (scenario
        deadlock planting mutates VC fields directly); also wakes every
        router and NIC, dropping all cached skip analysis (the SPIN
        framework dirties its controllers on the same event).
        """
        self.resyncs += 1
        vc_pkt = self.vc_pkt
        vc_ready = self.vc_ready
        vc_free = self.vc_free
        occupied = 0
        vid = 0
        for rid, router in enumerate(self.routers):
            act = self.active[rid]
            del act[:]
            for inport, vcs in router.all_inports():
                for vc in vcs:
                    if vc.packet is not None:
                        vc_pkt[vid] = 1
                        vc_ready[vid] = vc.ready_at
                        act.append(vid)
                        occupied += 1
                    else:
                        vc_pkt[vid] = 0
                        vc_free[vid] = vc.free_at
                    vid += 1
        self.occupied = occupied
        count = self.router_count
        self.r_dirty = bytearray(b"\x01" * count)
        self.r_wake = [0] * count
        self.r_any_dirty = True
        self.r_min_wake = 0
        self.nic_wake = [0] * len(self.nic_wake)
        self.active_nics = {nic.node for nic in self.nics if nic.backlog()}

    def verify_against_objects(self) -> List[str]:
        """Check the mirror invariant; returns human-readable mismatches.

        The invariant covers exactly what the hot loops consult: the
        occupancy bitmap everywhere, ``vc_ready`` for occupied VCs,
        ``vc_free`` for empty VCs, the sorted per-router active rows, and
        the global occupancy count.
        """
        problems = []
        vid = 0
        occupied = 0
        for rid, router in enumerate(self.routers):
            expect_active = []
            for inport, vcs in router.all_inports():
                for vc in vcs:
                    if self.vc_obj[vid] is not vc:
                        problems.append(f"vid {vid}: object identity drifted")
                    held = vc.packet is not None
                    if bool(self.vc_pkt[vid]) != held:
                        problems.append(
                            f"vid {vid} (r{rid} p{inport}.{vc.index}): "
                            f"vc_pkt={self.vc_pkt[vid]} but "
                            f"packet={'set' if held else 'None'}")
                    if held:
                        occupied += 1
                        expect_active.append(vid)
                        if self.vc_ready[vid] != vc.ready_at:
                            problems.append(
                                f"vid {vid}: vc_ready={self.vc_ready[vid]} "
                                f"!= ready_at={vc.ready_at}")
                    elif self.vc_free[vid] != vc.free_at:
                        problems.append(
                            f"vid {vid}: vc_free={self.vc_free[vid]} "
                            f"!= free_at={vc.free_at}")
                    vid += 1
            if self.active[rid] != expect_active:
                problems.append(
                    f"router {rid}: active row {self.active[rid]} "
                    f"!= occupancy scan {expect_active}")
        if self.occupied != occupied:
            problems.append(
                f"occupied={self.occupied} != scanned {occupied}")
        return problems

    # ------------------------------------------------------------------
    # Phase: inject (inlined NetworkInterface.try_inject)
    # ------------------------------------------------------------------
    def phase_inject(self, cycle: int) -> None:
        active = self.active_nics
        if not active:
            return
        nics = self.nics
        routers = self.routers
        nic_wake = self.nic_wake
        vc_pkt = self.vc_pkt
        vc_free = self.vc_free
        vc_ready = self.vc_ready
        stats = self.stats
        router_latency = self.router_latency
        r_dirty = self.r_dirty
        ctrl_dirty = self.ctrl_dirty
        inj_port = self.inj_port
        inj_rid = self.inj_rid
        for node in sorted(active):
            if cycle < nic_wake[node]:
                continue
            nic = nics[node]
            rid = inj_rid[node]
            router = routers[rid]
            iport = inj_port[node]
            port_busy = router.port_busy
            queues = nic.queues
            injected = False
            if cycle > port_busy[iport]:
                num_vnets = len(queues)
                nxt = nic._next_vnet
                vid_rows = self.inj_vids[node]
                vc_rows = self.inj_vcs[node]
                for offset in range(num_vnets):
                    vnet = (nxt + offset) % num_vnets
                    queue = queues[vnet]
                    if not queue:
                        continue
                    packet = queue[0]
                    # Base-class injection_vc_choices is the full slice in
                    # index order (routing whitelist).
                    vids = vid_rows[packet.vnet]
                    vc = None
                    for j, dvid in enumerate(vids):
                        if not vc_pkt[dvid] and vc_free[dvid] <= cycle:
                            vc = vc_rows[packet.vnet][j]
                            vid = dvid
                            break
                    if vc is None:
                        continue
                    queue.popleft()
                    nic._next_vnet = (vnet + 1) % num_vnets
                    # routing.on_inject: base no-op under the whitelist.
                    length = packet.length
                    # vc.reserve(packet, cycle, 1, router_latency), idleness
                    # pre-verified through the mirrors.
                    vc.packet = packet
                    vc.head_arrival = cycle + 1
                    ready = cycle + 1 + router_latency
                    vc.ready_at = ready
                    vc.tail_arrival = cycle + length
                    vc.active_since = cycle
                    port_busy[iport] = cycle + length - 1
                    packet.inject_cycle = cycle
                    # note_vc_reserved(router, vc), inlined.
                    router.active_vcs += 1
                    self.occupied += 1
                    r_dirty[rid] = 1
                    ctrl_dirty[rid] = 1
                    vc_pkt[vid] = 1
                    vc_ready[vid] = ready
                    insort(self.active[rid], vid)
                    stats.record_injection(packet, cycle)
                    injected = True
                    break
                if injected:
                    self.r_any_dirty = True
            # Wake analysis (identical to the idle-skip layer): failed
            # try_inject calls are pure, so sleeping over them is exact.
            for queue in queues:
                if queue:
                    break
            else:
                active.discard(node)
                nic_wake[node] = 0
                continue
            busy = port_busy[iport]
            if injected or cycle <= busy:
                nic_wake[node] = busy + 1
                continue
            wake = _NEVER
            vid_rows = self.inj_vids[node]
            for queue in queues:
                if not queue:
                    continue
                head = queue[0]
                for dvid in vid_rows[head.vnet]:
                    if not vc_pkt[dvid]:
                        free = vc_free[dvid]
                        if free < wake:
                            wake = free
            nic_wake[node] = wake

    # ------------------------------------------------------------------
    # Phase: allocate (inlined Router.allocate + grants + wake analysis)
    # ------------------------------------------------------------------
    def router_cycle(self, rid: int, cycle: int) -> None:
        """One allocation cycle over the compiled rows.

        Semantically a line-for-line replica of ``Router.allocate`` (route
        compute over ready unfrozen VCs, separable switch allocation with
        round-robin output arbitration, grant timing) with the module-level
        decision inlining; ends by computing the router's next wake time.
        """
        r_dirty = self.r_dirty
        r_dirty[rid] = 0
        act = self.active[rid]
        if not act:
            self.r_wake[rid] = _NEVER
            return
        router = self.routers[rid]
        routing = self.routing
        vc_obj = self.vc_obj
        vc_ready = self.vc_ready
        vc_pkt = self.vc_pkt
        vc_free = self.vc_free
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
        for vid in act:
            vc = vc_obj[vid]
            if vc.frozen:
                continue
            ready_at = vc_ready[vid]
            if cycle < ready_at:
                if ready_at < wake:
                    wake = ready_at
                continue
            packet = vc.packet
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
                    for dvid in entry[4][vnet]:
                        if not vc_pkt[dvid]:
                            free = vc_free[dvid]
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
                        for dvid in entry[4][vnet]:
                            if not vc_pkt[dvid]:
                                free = vc_free[dvid]
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
                            dvcs_row = entry[3][vnet]
                            age = _NEVER
                            for j, dvid in enumerate(entry[4][vnet]):
                                if vc_pkt[dvid]:
                                    a = cycle - dvcs_row[j].active_since
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
        vc_pkt = self.vc_pkt
        vc_free = self.vc_free
        vc_ready = self.vc_ready
        r_dirty = self.r_dirty
        ctrl_dirty = self.ctrl_dirty
        r_wake = self.r_wake
        nic_wake = self.nic_wake
        up_rid = self.up_rid
        nic_of = self.nic_of
        active = self.active
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
                    viable.append((item[0], item[1], vc, None, -1))
                else:
                    vnet = vc.packet.vnet
                    dvids = entry[4][vnet]
                    dvcs = entry[3][vnet]
                    for j, dvid in enumerate(dvids):
                        if not vc_pkt[dvid] and vc_free[dvid] <= cycle:
                            viable.append(
                                (item[0], item[1], vc, dvcs[j], dvid))
                            break
            if not viable:
                continue
            # Round-robin arbitration (Router._arbitrate): stable order by
            # (inport, index) == arbkey, first key at/after the pointer.
            if len(viable) == 1:
                key, vid, vc, dvc, dvid = viable[0]
            else:
                viable.sort()
                pointer = rr.get(outport, 0)
                chosen = viable[0]
                for item in viable:
                    if item[0] >= pointer:
                        chosen = item
                        break
                key, vid, vc, dvc, dvid = chosen
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
            router.active_vcs -= 1
            self.occupied -= 1
            vc_pkt[vid] = 0
            vc_free[vid] = free
            active[rid].remove(vid)
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
                if node >= 0 and nic_wake[node] > free:
                    nic_wake[node] = free

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
                # idleness pre-verified through the mirrors.
                dvc.packet = packet
                dvc.head_arrival = cycle + latency
                ready = cycle + latency + router_latency
                dvc.ready_at = ready
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
                self.routers[nrid].active_vcs += 1
                self.occupied += 1
                vc_pkt[dvid] = 1
                vc_ready[dvid] = ready
                insort(active[nrid], dvid)
                r_dirty[nrid] = 1
                ctrl_dirty[nrid] = 1
        if flit_hops:
            # One aggregated increment per router per cycle; the counter's
            # final value matches the reference's per-grant increments.
            self._count_event("flit_hops", flit_hops)
        if moved:
            net.last_movement = cycle
            self.r_any_dirty = True
