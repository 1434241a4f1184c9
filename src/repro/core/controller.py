"""Per-router SPIN controller.

Implements the paper's router-side machinery (Sec. IV-A/B, Table II):

* the **detection counter** — points at one occupied VC at a time
  (round-robin) and fires after ``tDD`` cycles without movement;
* the **probe manager** — forks/forwards/drops probes per the rules of
  Sec. IV-B1 and initiates recovery when its own probe returns;
* the **move manager** — freezes VCs on move/probe_move, unfreezes on
  kill_move, tracks the latched source id and the ``is_deadlock`` bit;
* the **loop buffer** — stores the deadlock path between spins.

The controller never touches the datapath directly except by freezing VCs;
the synchronized movement itself is performed by
:class:`repro.core.executor.SpinExecutor`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.core.fsm import (
    DD,
    FORWARD_PROGRESS,
    FREEZABLE_STATES,
    FROZEN,
    KILL_MOVE,
    MOVE,
    OFF,
    PROBE_MOVE,
    SpinState,
)
from repro.core.messages import (
    KillMoveMessage,
    MoveMessage,
    ProbeMessage,
    ProbeMoveMessage,
)
from repro.network.router import EJECT_PORT_BASE
from repro.network.vc import VirtualChannel

#: SM-loss watchdog (docs/FAULTS.md): extra cycles on top of the loop-delay
#: bound when arming a watchdog (absorbs SM queueing jitter), retries per
#: lost SM round trip before the FSM resets, and the timeout's multiplier
#: per retry (exponential backoff).
WATCHDOG_MARGIN = 16
MAX_SM_RETRIES = 3
BACKOFF_FACTOR = 2


class _MoveFamily(NamedTuple):
    """One kind of the move family (move, probe_move): the initiator state
    its own SM returns into, and its ``<kind>s_<outcome>`` counter names."""

    state: SpinState
    sent: str
    returned: str
    stale: str
    dropped_busy: str
    dropped_priority: str
    dropped_malformed: str
    dropped_no_dependency: str


#: A probe_move is the move of the next spin (paper Sec. IV-B4): both
#: kinds take one handler, which differs only in these fields.
MOVE_FAMILIES = {
    kind: _MoveFamily(state, *(f"{kind}s_{outcome}"
                               for outcome in _MoveFamily._fields[1:]))
    for kind, state in (("move", MOVE), ("probe_move", PROBE_MOVE))
}


class SpinController:
    """SPIN state machine and SM handlers for one router."""

    def __init__(self, router, framework) -> None:
        self.router = router
        self.router_id = router.id
        self.framework = framework
        self.params = framework.params
        self.state = OFF
        #: Absolute cycle of the next counter event in the current state.
        self.deadline: Optional[int] = None

        # Detection counter pointer: the pointed VC (see :attr:`pointer`)
        # and the uid of the packet it held when pointed at.
        self._pointed: Optional[VirtualChannel] = None
        self.pointed_uid: Optional[int] = None

        # Initiator-side latched context.
        self.probe_inport: Optional[int] = None
        self.probe_outport: Optional[int] = None
        #: Message class of the probed dependency; all SMs of this recovery
        #: are scoped to it (deadlocks form within one vnet).
        self.probe_vnet: int = 0
        #: The loop buffer (Table II): outports of the loop's other routers.
        self.loop_path: Tuple[int, ...] = ()
        self.loop_delay = 0
        self.spin_cycle: Optional[int] = None
        #: Deferred probe_move emission ("after one spin is complete").
        self.probe_move_send_at: Optional[int] = None

        # Move-manager state shared by initiator and others.
        self.is_deadlock = False
        self.latched_source: Optional[int] = None

        # Watchdog state (SM-loss hardening, docs/FAULTS.md): the last
        # outstanding probe round trip as (inport, outport, vnet,
        # timeout_cycle, retries), and the kill_move retry budget used.
        self.probe_pending: Optional[Tuple[int, int, int, int, int]] = None
        self.kill_retries = 0

        # The detection ring (``FabricPlan.rings``: the network input VCs'
        # scan slots in (port, index) order, twice over) and the pointer's
        # position on it.  Per-(inport, vnet) VC rows are cached: the
        # router's inports are fixed after fabric construction.
        self._ring = framework.network.plan.rings[router.id]
        self._ring_at = 0
        self._vnet_rows: dict = {}

    # ------------------------------------------------------------------
    # Counter tick (called once per cycle)
    # ------------------------------------------------------------------
    def tick(self, now: int) -> bool:
        """One counter cycle.

        Returns False when the tick left the FSM where it was (state,
        deadline, probe watchdog, deferred probe_move), so its due time
        (``repro.core.framework._ctrl_due``) stands.
        """
        state = self.state
        if state is OFF:
            if self.router.occupied:
                self._point_at_next_active_vc(now)
                return True
            return False
        if state is DD:
            pending = self.probe_pending
            fired = pending is not None and now >= pending[3]
            if fired:
                self._check_probe_watchdog(now)
            return self._tick_detection(now) or fired
        if state is MOVE:
            if now >= self.deadline:
                # The move round trip timed out: some hop dropped it (link
                # contention, dead link, or an injected SM fault).
                self.framework.stats.count("watchdog_fires")
                self._start_kill(now)
                return True
        elif state is PROBE_MOVE:
            if self.probe_move_send_at is not None and now >= self.probe_move_send_at:
                self._emit_probe_move(now)
                return True
            if self.probe_move_send_at is None and now >= self.deadline:
                self.framework.stats.count("watchdog_fires")
                self._start_kill(now)
                return True
        elif state is KILL_MOVE:
            if now >= self.deadline:
                self._kill_watchdog(now)
                return True
        elif state in (FROZEN, FORWARD_PROGRESS):
            # The executor normally drives these states at the spin cycle.
            # If that cycle passed without a callback (lost kill_move race),
            # escape back to detection rather than hang forever.
            if self.deadline is not None and now > self.deadline + 1:
                if self.latched_source is not None:
                    self._unfreeze_own(self.latched_source)
                self.is_deadlock = False
                self.latched_source = None
                self.framework.stats.count("freeze_timeouts")
                self.framework.stats.count("watchdog_fires")
                self._reset_to_detection(now)
                return True
        return False

    def _tick_detection(self, now: int) -> bool:
        """The detection counter's cycle; False when it only counted."""
        vc = self._pointed
        if vc is None or vc.packet is None or vc.packet.uid != self.pointed_uid:
            self._point_at_next_active_vc(now)
            return True
        if now < self.deadline:
            return False
        packet = vc.packet
        request = packet.current_request
        if (
            not vc.frozen
            and now >= vc.tail_arrival
            and request is not None
            and request < EJECT_PORT_BASE
        ):
            self._send_probe(now, vc.inport, request, packet.vnet)
        # Counter resets with the same threshold and the pointer advances
        # round-robin, so every stuck VC at this router is eventually
        # probed.  (A pointer parked on one VC forever could starve the
        # core cycle of a rho-shaped dependency chain: that VC's probe
        # walks into a loop it is not part of and orbits without ever
        # returning, while the VC that *is* on the loop never gets probed.)
        self._point_at_next_active_vc(now)
        return True

    # ------------------------------------------------------------------
    # Pointer management
    # ------------------------------------------------------------------
    @property
    def pointer(self) -> Optional[Tuple[int, int]]:
        """The pointed VC as ``(inport, vc index)``, None when unset.
        Assigning None (or another VC's pair) re-points the counter."""
        vc = self._pointed
        return None if vc is None else (vc.inport, vc.index)

    @pointer.setter
    def pointer(self, value: Optional[Tuple[int, int]]) -> None:
        self._pointed = (None if value is None
                         else self.router.inports[value[0]][value[1]])

    def _vnet_vcs(self, inport: Optional[int], vnet: int) -> tuple:
        """The VCs of one vnet at a network input port — ``()`` for a port
        this router does not have."""
        row = self._vnet_rows.get((inport, vnet))
        if row is None:
            router = self.router
            row = self._vnet_rows[(inport, vnet)] = (
                tuple(router.vnet_slice(inport, vnet))
                if inport in router.inports else ())
        return row

    def _point_at_next_active_vc(self, now: int) -> None:
        """Advance the pointer round-robin to the next occupied VC (the
        ring's next slot set in the router's occupancy mask)."""
        ring = self._ring
        count = len(ring) >> 1
        start = 0 if self._pointed is None else self._ring_at + 1
        occupied = self.router.occupied
        for at in range(start, start + count):
            if occupied >> ring[at] & 1:
                break
        else:
            self._go_off()
            return
        self._ring_at = at if at < count else at - count
        vc = self._pointed = self.router._scan[ring[at]]
        self.pointed_uid = vc.packet.uid
        self.state = DD
        self.deadline = now + self.params.tdd

    def _go_off(self) -> None:
        self.state = OFF
        self._pointed = None
        self.pointed_uid = None
        self.deadline = None
        self.probe_pending = None

    # ------------------------------------------------------------------
    # Initiator actions
    # ------------------------------------------------------------------
    def _send_probe(self, now: int, inport: int, outport: int,
                    vnet: int, retries: int = 0) -> None:
        probe = ProbeMessage(sender=self.router.id, send_cycle=now,
                             origin_inport=inport, origin_outport=outport,
                             vnet=vnet)
        self.framework.send_sm(self.router.id, outport, probe, now)
        self.framework.on_probe_sent(self.router.id, now)
        # Arm the SM-loss watchdog (docs/FAULTS.md): the round trip is
        # bounded by the theorem's loop-delay bound; exponential backoff
        # keeps retries of a persistently-lossy path cheap.
        timeout = (self.framework.sm_rtt_bound * BACKOFF_FACTOR ** retries
                   + WATCHDOG_MARGIN)
        self.probe_pending = (inport, outport, vnet, now + timeout, retries)

    def _check_probe_watchdog(self, now: int) -> None:
        """Retry (bounded) a probe whose round trip outlived its bound.

        The rotating detection pointer is the natural re-probe mechanism in
        fault-free operation; the watchdog is the backstop for *lost* SMs —
        it re-probes the same dependency promptly instead of waiting a full
        ``tdd`` rotation, and gives up after ``MAX_SM_RETRIES`` so a truly
        dead control path degrades back to plain detection.
        """
        pending = self.probe_pending
        if pending is None or now < pending[3]:
            return
        inport, outport, vnet, _, retries = pending
        self.probe_pending = None
        self.framework.stats.count("watchdog_fires")
        if retries >= MAX_SM_RETRIES:
            self.framework.stats.count("watchdog_gave_up")
            return
        if self._freezable_vc(inport, outport, vnet, now) is None:
            return  # The dependency resolved itself; nothing to retry.
        self.framework.stats.count("sm_retries")
        self.framework.stats.count("probe_retries")
        self._send_probe(now, inport, outport, vnet, retries=retries + 1)

    def _kill_watchdog(self, now: int) -> None:
        """The kill_move round trip timed out: retry it, then reset.

        A lost kill_move is the most dangerous SM loss — downstream routers
        keep VCs frozen for a spin that will never happen (the FROZEN escape
        in :meth:`tick` eventually unsticks them, but slowly).  Retrying the
        kill is cheap and idempotent: unfreezing an already-thawed VC is a
        no-op.  After ``MAX_SM_RETRIES`` the initiator resets regardless —
        its own state must not hang on a dead control path.
        """
        self.framework.stats.count("watchdog_fires")
        if self.kill_retries < MAX_SM_RETRIES and self.loop_path:
            self.kill_retries += 1
            self.framework.stats.count("sm_retries")
            self.framework.stats.count("kill_move_retries")
            self.deadline = now + ((self.loop_delay + 1)
                                   * BACKOFF_FACTOR ** self.kill_retries)
            self._send_kill(now)
            return
        self.framework.stats.count("watchdog_resets")
        self._finish_recovery(now)

    def _start_move(self, now: int, probe: ProbeMessage) -> None:
        self.loop_path = probe.path
        self.loop_delay = now - probe.send_cycle
        self.state = MOVE
        self._send_move(now, MoveMessage)

    def _emit_probe_move(self, now: int) -> None:
        self.probe_move_send_at = None
        self._send_move(now, ProbeMoveMessage)

    def _send_move(self, now: int, message) -> None:
        """Send a move-family SM round the loop, arranging the spin for
        ``2 x loop_delay`` cycles from now (the paper's formula)."""
        self.deadline = now + self.loop_delay + 1
        self.spin_cycle = now + 2 * self.loop_delay
        move = message(sender=self.router.id, send_cycle=now,
                       path=self.loop_path, spin_cycle=self.spin_cycle,
                       hop_index=1, vnet=self.probe_vnet)
        self.framework.send_sm(self.router.id, self.probe_outport, move, now)
        self.framework.stats.count(MOVE_FAMILIES[message.kind].sent)

    def _start_kill(self, now: int) -> None:
        """The move/probe_move was dropped somewhere: cancel the spin."""
        self.state = KILL_MOVE
        self.kill_retries = 0
        self.deadline = now + self.loop_delay + 1
        self._send_kill(now)

    def _send_kill(self, now: int) -> None:
        kill = KillMoveMessage(sender=self.router.id, send_cycle=now,
                               path=self.loop_path, hop_index=1,
                               vnet=self.probe_vnet)
        self.framework.send_sm(self.router.id, self.probe_outport, kill, now)
        self.framework.stats.count("kill_moves_sent")

    def _finish_recovery(self, now: int) -> None:
        """Clear all initiator context and resume detection."""
        if self.latched_source == self.router.id:
            self.is_deadlock = False
            self.latched_source = None
            self._unfreeze_own(self.router.id)
        self._reset_to_detection(now)

    def _unfreeze_own(self, source: int) -> None:
        for inport, vcs in self.router.all_inports():
            for vc in vcs:
                if vc.frozen and vc.freeze_source == source:
                    vc.clear_freeze()

    # ------------------------------------------------------------------
    # SM reception
    # ------------------------------------------------------------------
    def on_sm(self, sm, inport: int, now: int) -> bool:
        """Handle one arriving SM.  Returns False for a probe that only
        passed through (forwarded or dropped), which leaves the FSM as it
        was."""
        kind = sm.kind
        if kind == "probe":
            if (
                sm.sender == self.router_id
                and inport == sm.origin_inport
                and self.state is DD
            ):
                self._accept_own_probe(sm, inport, now)
                return True
            self._forward_probe(sm, inport, now)
            return False
        if kind == "kill_move":
            self._on_kill_move(sm, inport, now)
        elif kind in MOVE_FAMILIES:
            self._on_move(sm, MOVE_FAMILIES[kind], inport, now)
        return True

    # --- probe ---------------------------------------------------------
    def _accept_own_probe(self, probe: ProbeMessage, inport: int,
                          now: int) -> None:
        # The detection pointer may have rotated onward since this probe was
        # sent; what matters is that the probed dependency still exists:
        # some VC at the probe's origin input port still waits on its origin
        # output port.  Latch the origin as the recovery context — the move
        # must leave through the same port the probe did for the path to
        # align hop-by-hop.
        self.probe_pending = None  # The round trip completed: disarm.
        self.probe_inport = probe.origin_inport
        self.probe_outport = probe.origin_outport
        self.probe_vnet = probe.vnet
        vc = self._freezable_vc(self.probe_inport, self.probe_outport,
                                probe.vnet, now)
        if vc is None:
            # Stale: the situation changed while the probe was in flight.
            self.framework.stats.count("probes_stale")
            return
        if self.is_deadlock and self.latched_source != self.router.id:
            # Another recovery already owns this router.
            self.framework.stats.count("probes_stale")
            return
        self.framework.stats.count("probes_returned")
        self._start_move(now, probe)

    def _forward_probe(self, probe: ProbeMessage, inport: int,
                       now: int) -> None:
        framework = self.framework
        if self.params.strict_priority_drop:
            mine = framework.priority.dynamic_priority(self.router_id, now)
            theirs = framework.priority.dynamic_priority(probe.sender, now)
            if mine > theirs:
                framework.stats.count("probes_dropped_priority")
                return
        if len(probe.path) >= framework.max_probe_path:
            framework.stats.count("probes_dropped_length")
            return
        vcs = self._vnet_rows.get((inport, probe.vnet))
        if vcs is None:
            vcs = self._vnet_vcs(inport, probe.vnet)
        if not vcs:
            return
        requests = []
        for vc in vcs:
            packet = vc.packet
            if packet is None:
                # Not all VCs at the probe's input port are active: drop.
                framework.stats.count("probes_dropped_idle_vc")
                return
            request = packet.current_request
            if request is None or request >= EJECT_PORT_BASE:
                continue
            if request not in requests:
                requests.append(request)
        if not requests:
            # Every packet here is waiting for ejection (or undecided).
            framework.stats.count("probes_dropped_ejecting")
            return
        # One fork per distinct request, straight into this cycle's outbox
        # (what ``SpinFramework.send_sm`` does, without the call per fork).
        outbox = framework._outbox
        router_id = self.router_id
        for outport in requests:
            outbox.append((router_id, outport, probe.forked(outport)))

    # --- move and probe_move --------------------------------------------
    def _on_move(self, move, family: _MoveFamily, inport: int,
                 now: int) -> None:
        if move.sender == self.router.id and not move.path:
            self._on_own_move_returned(move, family, now)
            return
        stats = self.framework.stats
        if self.is_deadlock and self.latched_source != move.sender:
            stats.count(family.dropped_busy)
            return
        if self._yields_to_rival_initiator(move.sender, now):
            stats.count(family.dropped_priority)
            return
        if not move.path:
            stats.count(family.dropped_malformed)
            return
        vc = self._freezable_vc(inport, move.first_port, move.vnet, now)
        if vc is None:
            # For a probe_move: the previous spin resolved the chain.
            stats.count(family.dropped_no_dependency)
            return
        self._freeze(vc, move, now)
        self.framework.send_sm(self.router.id, move.first_port,
                               move.advanced(), now)

    def _on_own_move_returned(self, move, family: _MoveFamily,
                              now: int) -> None:
        if self.state is not family.state or move.spin_cycle != self.spin_cycle:
            self.framework.stats.count(family.stale)
            return
        if self.is_deadlock and self.latched_source != self.router.id:
            self._start_kill(now)
            return
        vc = self._freezable_vc(self.probe_inport, self.probe_outport,
                                self.probe_vnet, now)
        if vc is None:
            self._start_kill(now)
            return
        self.is_deadlock = True
        self.latched_source = self.router.id
        vc.freeze(self.probe_outport, self.router.id, self.spin_cycle,
                  path_index=0)
        self.framework.executor.register(vc)
        self.state = FORWARD_PROGRESS
        self.deadline = self.spin_cycle
        self.framework.stats.count(family.returned)

    def _yields_to_rival_initiator(self, sender: int, now: int) -> bool:
        """Symmetry breaker between concurrent recovery initiators.

        When multiple routers of the *same* deadlocked ring initiate
        recovery in the same epoch (possible because their tDD counters are
        independent), every move would otherwise kill every other through
        the source-id latch, livelocking the recovery.  The rotating
        priority of Sec. IV-C1 resolves the race: an active initiator
        processes a rival's move only if that rival currently outranks it —
        so exactly one recovery (the highest-priority initiator's) survives
        each round.
        """
        if self.state not in (MOVE, PROBE_MOVE, KILL_MOVE):
            return False
        priority = self.framework.priority
        return (priority.dynamic_priority(sender, now)
                < priority.dynamic_priority(self.router.id, now))

    def _freezable_vc(self, inport: Optional[int], outport: int,
                      vnet: int, now: int) -> Optional[VirtualChannel]:
        """A VC of ``vnet`` at ``inport`` whose packet waits on ``outport``."""
        for vc in self._vnet_vcs(inport, vnet):
            packet = vc.packet
            if (
                packet is not None
                and not vc.frozen
                and vc.fully_arrived(now)
                and packet.current_request == outport
            ):
                return vc
        return None

    def _freeze(self, vc: VirtualChannel, move, now: int) -> None:
        vc.freeze(move.first_port, move.sender, move.spin_cycle,
                  path_index=move.hop_index)
        self.is_deadlock = True
        self.latched_source = move.sender
        if self.state in FREEZABLE_STATES:
            self.state = FROZEN
            self.deadline = move.spin_cycle
        self.framework.executor.register(vc)

    # --- kill_move -------------------------------------------------------
    def _on_kill_move(self, kill: KillMoveMessage, inport: int,
                      now: int) -> None:
        if kill.sender == self.router.id and not kill.path:
            if self.state is KILL_MOVE:
                self._finish_recovery(now)
            return
        if self.is_deadlock and self.latched_source != kill.sender:
            self.framework.stats.count("kill_moves_dropped_busy")
            return
        if not kill.path:
            self.framework.stats.count("kill_moves_dropped_malformed")
            return
        self._unfreeze_own(kill.sender)
        if self.latched_source == kill.sender:
            self.is_deadlock = False
            self.latched_source = None
            if self.state is FROZEN:
                self.state = DD
                self._point_at_next_active_vc(now)
        self.framework.send_sm(self.router.id, kill.first_port,
                               kill.advanced(), now)

    # ------------------------------------------------------------------
    # Executor callbacks
    # ------------------------------------------------------------------
    def on_spin_complete(self, now: int, was_initiator: bool) -> None:
        """A spin this router participated in just happened."""
        self.is_deadlock = False
        self.latched_source = None
        if was_initiator and self.params.probe_move_enabled and self.loop_path:
            self.state = PROBE_MOVE
            # "After one spin is complete": wait for the rotated packets'
            # tails to land and their new requests to be computed.
            settle = (self.framework.network.config.max_packet_length
                      + self.framework.network.config.router_latency + 1)
            self.probe_move_send_at = now + settle
            self.deadline = self.probe_move_send_at + self.loop_delay + 2
        else:
            self._reset_to_detection(now)

    def on_spin_aborted(self, now: int) -> None:
        """The executor refused the spin (broken chain / unsafe push)."""
        self.is_deadlock = False
        self.latched_source = None
        self._reset_to_detection(now)

    def _reset_to_detection(self, now: int) -> None:
        self.loop_path = ()
        self.spin_cycle = None
        self.probe_move_send_at = None
        self.probe_inport = None
        self.probe_outport = None
        self._pointed = None
        self.pointed_uid = None
        self.probe_pending = None
        self.kill_retries = 0
        self.state = DD
        self._point_at_next_active_vc(now)
