"""The invariant catalog: pure per-snapshot checks on live network state.

Each checker inspects one network at one cycle and yields
:class:`~repro.errors.InvariantViolation` objects (it never raises — policy
is the oracle's job).  Every violation carries ``invariant=<name>`` where
``<name>`` is a key of :data:`INVARIANTS`, so callers — and the
mutation-kill property suite — can assert *which* invariant tripped.

The checks in this module are **stateless**: they need only the current
snapshot.  History-dependent invariants (packet conservation, teleport
detection, FSM transition legality, deadlock persistence) live on
:class:`repro.verify.oracle.InvariantOracle`, which owns the cross-cycle
state.

See docs/VERIFY.md for the prose catalog.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.fsm import (
    INITIATOR_STATES,
    LEGAL_ATOMIC_TRANSITIONS,
    SpinState,
)
from repro.errors import InvariantViolation
from repro.network.router import NEVER
from repro.network.vc import VirtualChannel

#: name -> one-line description of every invariant family the oracle checks.
INVARIANTS: Dict[str, str] = {
    "credit_conservation":
        "router.occupied has a bit for exactly the occupied VCs at the "
        "router; on the object datapath no router sleeps past a ready, "
        "unfrozen VC and no NIC past a possible injection",
    "vc_occupancy":
        "an occupied VC holds exactly one packet with consistent timing "
        "fields, matching vnet, and a length within the buffer bound",
    "duplicate_packet":
        "no packet uid is resident in two buffers at once",
    "packet_conservation":
        "a packet leaves the fabric only by delivery or a counted loss",
    "teleport":
        "a resident packet only ever moves one hop along an existing link "
        "(or from its NIC queue into the attached router)",
    "link_capacity":
        "at most one packet enters a router input port over its link per "
        "cycle (a link carries one packet at a time)",
    "duplicate_delivery":
        "no packet is delivered twice",
    "misdelivery":
        "a packet is only ever delivered to its destination NIC",
    "link_accounting":
        "link occupancy and utilization counters never run backwards or "
        "exceed the packet-length bound",
    "freeze_legality":
        "a frozen VC holds a packet, carries complete freeze metadata, and "
        "does not outlive its spin cycle beyond the recovery bound",
    "freeze_token_uniqueness":
        "per (initiator, spin cycle) the frozen path indices are unique and "
        "index 0 sits at the initiating router",
    "fsm_transition":
        "per-router SPIN FSM state changes follow the legal transition "
        "relation of repro.core.fsm",
    "fsm_context":
        "a SPIN FSM state is always accompanied by the controller context "
        "that state requires (pointer, loop path, latched source, ...)",
    "deadlock_persistence":
        "no true deadlock (waitgraph ground truth) survives past the "
        "theory's recovery-latency bound",
}

#: Location of a resident packet: ("vc", router, inport, vc index) or
#: ("nic", node, vnet).
Location = Tuple


def iter_resident(network) -> Iterator[Tuple[int, object, Location]]:
    """Every resident packet as ``(uid, packet, location)``.

    Walks all router input VCs (network and injection ports) plus all NIC
    injection queues.  Deliberately does *not* trust ``Router.occupied`` —
    that mask is itself under audit (credit conservation).
    """
    for router in network.routers:
        for inport, vcs in router.all_inports():
            for vc in vcs:
                packet = vc.packet
                if packet is not None:
                    yield packet.uid, packet, ("vc", router.id, inport,
                                               vc.index)
    for nic in network.nics:
        for vnet, queue in enumerate(nic.queues):
            for packet in queue:
                yield packet.uid, packet, ("nic", nic.node, vnet)


def check_credit_conservation(network, cycle: int
                              ) -> Iterator[InvariantViolation]:
    """``Router.occupied`` (the credit fast path) vs. a direct occupancy
    count, and the sleep it drives.

    Where the object datapath allocates (no engine sink is attached), a
    router's ``wake`` is never later than the ``ready_at`` of one of its
    unfrozen VCs — unless a freeze or thaw since the last allocation will
    wake every router anyway.  Every engine injects through the object
    datapath, so under any of them a NIC with queued packets is
    backlogged, and its ``wake`` is never later than the first cycle its
    port and a permitted VC could take its head packet.
    """
    check_routers = (network.engine_sink is None and
                     network.freeze_epoch == VirtualChannel.freeze_epoch)
    for router in network.routers:
        mask = 0
        earliest = NEVER
        for _, vcs in router.all_inports():
            for vc in vcs:
                if vc.packet is not None:
                    mask |= vc.bit
                    if not vc.frozen and vc.ready_at < earliest:
                        earliest = vc.ready_at
        cached = router.occupied
        if mask != cached:
            yield InvariantViolation(
                "occupancy mask disagrees with VC occupancy",
                invariant="credit_conservation", router=router.id,
                cycle=cycle, counted=bin(mask).count("1"),
                cached=router.active_vcs, missing=mask & ~cached,
                phantom=cached & ~mask)
        elif check_routers and earliest < router.wake:
            yield InvariantViolation(
                "a sleeping router holds a VC ready before its wake time",
                invariant="credit_conservation", router=router.id,
                cycle=cycle, ready_at=earliest, wake=router.wake)
    routing = network.routing
    for nic in network.nics:
        heads = [queue[0] for queue in nic.queues if queue]
        if not heads:
            continue
        if nic.node not in network.backlogged:
            yield InvariantViolation(
                "a NIC with queued packets is not backlogged",
                invariant="credit_conservation", node=nic.node, cycle=cycle)
            continue
        router = network.routers[nic.router_id]
        free = NEVER
        for packet in heads:
            row = router.vnet_slice(nic.inject_port, packet.vnet)
            for index in routing.injection_vc_choices(packet):
                vc = row[index]
                if vc.packet is None and vc.free_at < free:
                    free = vc.free_at
        earliest = max(router.port_busy[nic.inject_port] + 1, free)
        if earliest < nic.wake:
            yield InvariantViolation(
                "a sleeping NIC could inject before its wake time",
                invariant="credit_conservation", node=nic.node, cycle=cycle,
                could_inject=earliest, wake=nic.wake)


def check_vc_occupancy(network, cycle: int) -> Iterator[InvariantViolation]:
    """Buffer bounds and timing-field consistency of every occupied VC."""
    config = network.config
    for router in network.routers:
        for inport, vcs in router.all_inports():
            for vc in vcs:
                packet = vc.packet
                if packet is None:
                    continue
                where = dict(invariant="vc_occupancy", router=router.id,
                             inport=inport, vc=vc.index, cycle=cycle,
                             packet=packet.uid)
                if not 1 <= packet.length <= config.buffer_depth:
                    yield InvariantViolation(
                        "packet length outside the VC buffer bound",
                        length=packet.length, depth=config.buffer_depth,
                        **where)
                if packet.vnet != vc.vnet:
                    yield InvariantViolation(
                        "packet resides in a VC of a different vnet",
                        packet_vnet=packet.vnet, vc_vnet=vc.vnet, **where)
                if vc.tail_arrival > vc.head_arrival + packet.length - 1:
                    yield InvariantViolation(
                        "tail arrival exceeds head arrival + length - 1 "
                        "(more flits than the packet has)",
                        head=vc.head_arrival, tail=vc.tail_arrival,
                        length=packet.length, **where)
                if vc.ready_at < vc.head_arrival:
                    yield InvariantViolation(
                        "packet ready before its head arrived",
                        head=vc.head_arrival, ready=vc.ready_at, **where)


def check_duplicate_packets(network, cycle: int
                            ) -> Iterator[InvariantViolation]:
    """No uid resident in two buffers at once (no duplicated packets)."""
    seen: Dict[int, Location] = {}
    for uid, _packet, location in iter_resident(network):
        if uid in seen:
            yield InvariantViolation(
                "packet resident in two buffers at once",
                invariant="duplicate_packet", packet=uid, cycle=cycle,
                first=seen[uid], second=location)
        else:
            seen[uid] = location


def check_link_accounting(network, cycle: int
                          ) -> Iterator[InvariantViolation]:
    """Link occupancy bounded by the maximum packet length."""
    horizon = cycle + network.config.max_packet_length
    for key, link in network.links.items():
        if link.busy_until > horizon:
            yield InvariantViolation(
                "link busy beyond one maximum packet from now",
                invariant="link_accounting", link=key, cycle=cycle,
                busy_until=link.busy_until, horizon=horizon)
        if link.flit_cycles < 0 or link.sm_cycles < 0:
            yield InvariantViolation(
                "negative link utilization counter",
                invariant="link_accounting", link=key, cycle=cycle,
                flit_cycles=link.flit_cycles, sm_cycles=link.sm_cycles)


def check_freeze_legality(network, cycle: int, overdue_slack: int
                          ) -> Iterator[InvariantViolation]:
    """Frozen VCs carry a packet and complete, timely freeze metadata."""
    for router in network.routers:
        for inport, vcs in router.all_inports():
            for vc in vcs:
                if not vc.frozen:
                    continue
                where = dict(invariant="freeze_legality", router=router.id,
                             inport=inport, vc=vc.index, cycle=cycle)
                if vc.packet is None:
                    yield InvariantViolation(
                        "frozen VC holds no packet", **where)
                    continue
                if (vc.freeze_outport < 0 or vc.freeze_source < 0
                        or vc.freeze_spin_cycle < 0
                        or vc.freeze_path_index < 0):
                    yield InvariantViolation(
                        "frozen VC with incomplete freeze metadata",
                        outport=vc.freeze_outport, source=vc.freeze_source,
                        spin_cycle=vc.freeze_spin_cycle,
                        path_index=vc.freeze_path_index, **where)
                elif cycle > vc.freeze_spin_cycle + overdue_slack:
                    yield InvariantViolation(
                        "frozen VC outlived its spin cycle beyond the "
                        "recovery bound",
                        spin_cycle=vc.freeze_spin_cycle,
                        slack=overdue_slack, **where)


def check_freeze_tokens(network, cycle: int) -> Iterator[InvariantViolation]:
    """Per-(initiator, spin-cycle) uniqueness of frozen path indices."""
    groups: Dict[Tuple[int, int], Dict[int, Tuple[int, int, int]]] = {}
    for router in network.routers:
        for inport, vcs in router.all_inports():
            for vc in vcs:
                if not vc.frozen or vc.freeze_source < 0:
                    continue
                token = (vc.freeze_source, vc.freeze_spin_cycle)
                index = vc.freeze_path_index
                location = (router.id, inport, vc.index)
                held = groups.setdefault(token, {})
                if index in held:
                    yield InvariantViolation(
                        "duplicate frozen path index within one recovery",
                        invariant="freeze_token_uniqueness", cycle=cycle,
                        source=token[0], spin_cycle=token[1],
                        path_index=index, first=held[index],
                        second=location)
                else:
                    held[index] = location
                if index == 0 and router.id != vc.freeze_source:
                    yield InvariantViolation(
                        "path index 0 frozen away from its initiator",
                        invariant="freeze_token_uniqueness", cycle=cycle,
                        source=token[0], spin_cycle=token[1],
                        router=router.id)


#: Per-handler (atomic) illegal transitions, derived from the FSM's own
#: table: anything outside :data:`repro.core.fsm.LEGAL_ATOMIC_TRANSITIONS`.
#: This is the relation the model checker enforces on every explored step
#: (one step = one handler) and the strictest legality statement we can
#: make; the runtime oracle cannot use it directly because it samples once
#: per cycle.
ATOMIC_ILLEGAL_TRANSITIONS: Dict[SpinState, frozenset] = {
    state: frozenset(
        other for other in SpinState
        if other is not state
        and other not in LEGAL_ATOMIC_TRANSITIONS[state])
    for state in SpinState
}

#: Per-*cycle* sets of provably unreachable next states, including any
#: composite transition a single cycle can produce (a spin/abort callback,
#: then a priority-ordered batch of SM handlers, then the counter tick —
#: :meth:`repro.core.framework.SpinFramework.phase_control` order).
#: Everything outside these sets is considered legal — the relation errs
#: on the permissive side so the oracle never cries wolf on a
#: rare-but-correct composite step.  tests/unit/test_fsm_legality.py
#: audits it two ways: it must be consistent with the atomic table above
#: (nothing atomically legal may be cycle-illegal), and the model
#: checker's exhaustively observed transitions must all be legal here.
ILLEGAL_TRANSITIONS: Dict[SpinState, frozenset] = {
    SpinState.OFF: frozenset({
        SpinState.MOVE, SpinState.FORWARD_PROGRESS,
        SpinState.PROBE_MOVE, SpinState.KILL_MOVE,
    }),
    SpinState.DD: frozenset({
        SpinState.FORWARD_PROGRESS, SpinState.PROBE_MOVE,
        SpinState.KILL_MOVE,
    }),
    # A thaw leaves the once-frozen VC occupied, so the pointer sweep that
    # could park the counter OFF always finds a packet within the same
    # cycle: FROZEN -> OFF is impossible.  (Same argument for MOVE /
    # FORWARD_PROGRESS / PROBE_MOVE below: every in-cycle path of theirs
    # to DD — spin, abort, escape — leaves at least one occupied VC
    # behind.  KILL_MOVE -> OFF, by contrast, is real: the probed
    # dependency may have drained mid-recovery, and _finish_recovery's
    # pointer sweep then finds nothing.)
    SpinState.FROZEN: frozenset({
        SpinState.FORWARD_PROGRESS, SpinState.PROBE_MOVE,
        SpinState.KILL_MOVE, SpinState.OFF,
    }),
    SpinState.MOVE: frozenset({SpinState.PROBE_MOVE, SpinState.OFF}),
    SpinState.FORWARD_PROGRESS: frozenset({
        SpinState.KILL_MOVE, SpinState.OFF,
    }),
    SpinState.KILL_MOVE: frozenset({
        SpinState.FORWARD_PROGRESS, SpinState.PROBE_MOVE,
    }),
    SpinState.PROBE_MOVE: frozenset({SpinState.OFF}),
}

#: States that may only be held by the active recovery initiator — the
#: FSM's own definition, re-exported under the name this module
#: historically used.
_INITIATOR_ONLY = INITIATOR_STATES


def check_fsm_context(network, cycle: int) -> Iterator[InvariantViolation]:
    """Each SPIN FSM state implies the controller context it requires."""
    spin = network.spin
    if spin is None:
        return
    for controller in spin.controllers:
        state = controller.state
        where = dict(invariant="fsm_context", router=controller.router.id,
                     cycle=cycle, state=state.name)
        if state is SpinState.OFF:
            if (controller.pointer is not None
                    or controller.deadline is not None):
                yield InvariantViolation(
                    "OFF controller retains detection context",
                    pointer=controller.pointer,
                    deadline=controller.deadline, **where)
        elif state is SpinState.DD:
            if controller.pointer is None or controller.deadline is None:
                yield InvariantViolation(
                    "DD controller without a pointed VC or deadline",
                    pointer=controller.pointer,
                    deadline=controller.deadline, **where)
        elif state in _INITIATOR_ONLY:
            if state is not SpinState.KILL_MOVE and not controller.loop_path:
                yield InvariantViolation(
                    "initiator state without a latched loop path", **where)
            if controller.deadline is None:
                yield InvariantViolation(
                    "initiator state without a watchdog deadline", **where)
            if (state is SpinState.FORWARD_PROGRESS
                    and (not controller.is_deadlock
                         or controller.latched_source
                         != controller.router.id)):
                yield InvariantViolation(
                    "FORWARD_PROGRESS without self-latched deadlock bit",
                    is_deadlock=controller.is_deadlock,
                    latched=controller.latched_source, **where)
        if controller.is_deadlock and controller.latched_source is None:
            yield InvariantViolation(
                "is_deadlock set with no latched source", **where)


STATELESS_CHECKS = {
    "credit_conservation": check_credit_conservation,
    "vc_occupancy": check_vc_occupancy,
    "duplicate_packet": check_duplicate_packets,
    "link_accounting": check_link_accounting,
    "freeze_token_uniqueness": check_freeze_tokens,
    "fsm_context": check_fsm_context,
}


def run_stateless(network, cycle: int,
                  enabled: Iterable[str]) -> List[InvariantViolation]:
    """Run the enabled stateless checks; returns all violations found."""
    found: List[InvariantViolation] = []
    for name in enabled:
        checker = STATELESS_CHECKS.get(name)
        if checker is not None:
            found.extend(checker(network, cycle))
    return found
