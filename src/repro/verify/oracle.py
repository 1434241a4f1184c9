"""The runtime invariant oracle.

:class:`InvariantOracle` watches one network from inside the cycle loop.  It
registers itself as a simulator *observer* (:meth:`repro.sim.engine.Simulator
.register_observer`), so it sees the settled state of every cycle after all
components ran — and costs nothing when not attached.  On top of the
stateless snapshot checks of :mod:`repro.verify.invariants` it owns the
history-dependent invariants:

* **packet conservation** — a per-cycle census of resident packet uids; a
  uid may only vanish by delivery or a counted loss (both captured by
  wrapping ``network.deliver`` and ``stats.record_loss`` at attach time);
* **teleport detection** — between consecutive censuses a resident packet
  moves at most one hop along an existing link (or from its NIC queue into
  the attached router);
* **delivery soundness** — no packet delivered twice, none delivered to a
  foreign NIC;
* **FSM transition legality** — per-router SPIN state deltas checked against
  :data:`repro.verify.invariants.ILLEGAL_TRANSITIONS`;
* **link counter monotonicity** — utilization counters never run backwards
  within one measurement epoch;
* **deadlock persistence** — periodically, the ground-truth wait-graph
  oracle (:mod:`repro.deadlock.waitgraph`) must not report the *same*
  deadlocked packet (no hop progress) for longer than the theory's
  recovery-latency bound.

Policy lives here too: ``mode="raise"`` turns the first violation into an
:class:`~repro.errors.InvariantViolation` exception; ``mode="record"``
accumulates deduplicated violations on :attr:`InvariantOracle.violations`
and counts every occurrence into ``network.stats.events`` (keys
``invariant_violations`` and ``violation_<name>``), from where they flow
into :class:`~repro.stats.sweep.SweepPoint` untouched.

Enable without code changes via the ``REPRO_VERIFY`` environment variable
(:data:`VERIFY_MODES`, resolved by :func:`repro.config.env_gate`):
``strict``/``raise`` raises on first violation, ``record``/``1`` records.
See docs/VERIFY.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.deadlock.waitgraph import (
    find_deadlocked_packets,
    spin_persistence_bound,
)
from repro.errors import ConfigurationError, InvariantViolation
from repro.verify.invariants import (
    ILLEGAL_TRANSITIONS,
    INVARIANTS,
    STATELESS_CHECKS,
    check_freeze_legality,
    iter_resident,
)

#: Environment gate attaching an oracle to every run that has none.
VERIFY_ENV = "REPRO_VERIFY"
#: ``REPRO_VERIFY`` values that enable the oracle, mapped to its mode.
VERIFY_MODES = {
    "1": "record",
    "record": "record",
    "strict": "raise",
    "raise": "raise",
}

#: Deadlock-persistence bound when recovery is a Static Bubble control
#: plane (its detection threshold plus drain, with ample margin).
_STATIC_BUBBLE_BOUND = 8192


@dataclass
class OracleConfig:
    """Tuning knobs of :class:`InvariantOracle`.

    Attributes:
        mode: ``"raise"`` (fail the run on first violation) or ``"record"``
            (accumulate and count, never raise).
        check_interval: Cycles between full snapshot checks (1 = every
            cycle).  History checks that need *consecutive* observations
            (teleport, FSM transitions) disable themselves automatically
            when the interval exceeds 1.
        deadlock_check_interval: Cycles between ground-truth wait-graph
            evaluations (they walk the whole network).
        deadlock_bound: Max cycles one packet may stay truly deadlocked
            without hop progress.  ``None`` auto-derives from the attached
            recovery theory (see :meth:`InvariantOracle.deadlock_bound`);
            pass ``0`` to flag any deadlock confirmed by two consecutive
            evaluations, or a negative value to disable the check.
        overdue_slack: Max cycles a frozen VC may outlive its spin cycle.
            ``None`` auto-derives from the SPIN watchdog bounds.
        journal: Record per-delivery signatures for the differential
            conformance runner (:mod:`repro.verify.differential`).
        max_violations: Stop checking after this many recorded violations
            (record mode only) so a broken run cannot flood memory.
        checks: Restriction to a subset of :data:`INVARIANTS` names, or
            ``None`` for all.
    """

    mode: str = "raise"
    check_interval: int = 1
    deadlock_check_interval: int = 64
    deadlock_bound: Optional[int] = None
    overdue_slack: Optional[int] = None
    journal: bool = False
    max_violations: int = 1000
    checks: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "record"):
            raise ConfigurationError(
                "oracle mode must be 'raise' or 'record'", mode=self.mode)
        if self.check_interval < 1 or self.deadlock_check_interval < 1:
            raise ConfigurationError(
                "check intervals must be >= 1",
                check_interval=self.check_interval,
                deadlock_check_interval=self.deadlock_check_interval)
        if self.checks is not None:
            self.checks = frozenset(self.checks)
            unknown = self.checks - set(INVARIANTS)
            if unknown:
                raise ConfigurationError(
                    f"unknown invariant name(s) {sorted(unknown)}",
                    known=sorted(INVARIANTS))


class InvariantOracle:
    """Per-cycle invariant checker for one network.

    Usage::

        oracle = InvariantOracle(network, OracleConfig(mode="record"))
        oracle.attach(simulator)      # observer + delivery/loss hooks
        simulator.run(...)
        assert oracle.violation_count == 0, oracle.violations

    The oracle may also be used without a simulator: :meth:`check_now`
    performs one full sweep against the network's current state and returns
    the violations found (never raising) — the shape the mutation-kill
    property tests consume.
    """

    def __init__(self, network, config: Optional[OracleConfig] = None
                 ) -> None:
        self.network = network
        self.config = config or OracleConfig()
        #: Deduplicated violations (record mode keeps the first per site).
        self.violations: List[InvariantViolation] = []
        #: Total violation occurrences (including site duplicates).
        self.violation_count = 0
        #: Delivery journal for differential runs, when config.journal:
        #: (src_node, dst_node, length, vnet, create_cycle) per delivery.
        self.delivered_signatures: List[Tuple[int, int, int, int, int]] = []
        self._attached = False
        self._saturated = False
        self._seen_sites: Set[tuple] = set()

        # --- cross-cycle state ---
        self._census: Dict[int, tuple] = {}       # uid -> (location, hops)
        self._census_cycle: Optional[int] = None
        self._pending_exits: Set[int] = set()     # delivered/lost uids not
        self._delivered_ever: Set[int] = set()    # yet seen leaving census
        self._fsm_states: Optional[list] = None
        self._link_marks: Dict[tuple, tuple] = {}
        self._deadlock_seen: Dict[int, Tuple[int, int]] = {}
        self._last_deadlock_check: Optional[int] = None

        # --- static structure ---
        self._neighbors: Dict[int, Set[int]] = {}
        for link in network.links.values():
            self._neighbors.setdefault(link.src, set()).add(link.dst)
        self._nic_router = {nic.node: nic.router_id for nic in network.nics}

        self._deadlock_bound = self._auto_deadlock_bound()
        self._overdue_slack = self._auto_overdue_slack()

    # ------------------------------------------------------------------
    # Auto-configuration
    # ------------------------------------------------------------------
    def _recovery_latency_bound(self) -> Optional[int]:
        """Generous bound on one full SPIN recovery (detection through
        spin), covering watchdog retries; None when SPIN is not attached."""
        spin = self.network.spin
        if spin is None:
            return None
        return spin_persistence_bound(spin.params.tdd, spin.sm_rtt_bound)

    def _auto_deadlock_bound(self) -> Optional[int]:
        """Derive the deadlock-persistence bound from the attached theory.

        Returns None (check disabled) when no recovery/avoidance theory is
        recognized — without one, a persistent deadlock is a legitimate
        outcome (that is what Fig. 2 demonstrates), not a simulator bug.
        """
        if self.config.deadlock_bound is not None:
            bound = self.config.deadlock_bound
            return None if bound < 0 else bound
        network = self.network
        spin_bound = self._recovery_latency_bound()
        if spin_bound is not None:
            return spin_bound
        for plane in network.control_planes:
            if type(plane).__name__ == "StaticBubbleControlPlane":
                return _STATIC_BUBBLE_BOUND
        from repro.deadlock.bubble import BubbleFlowControlRouting
        from repro.routing.dor import DimensionOrderRouting
        from repro.routing.escape import EscapeVcRouting
        from repro.routing.table import UpDownRouting
        from repro.routing.turn_model import TurnModelRouting
        avoidance = (DimensionOrderRouting, BubbleFlowControlRouting,
                     EscapeVcRouting, TurnModelRouting, UpDownRouting)
        if isinstance(network.routing, avoidance):
            return 0  # provably deadlock-free: flag on confirmation
        return None

    def _auto_overdue_slack(self) -> int:
        if self.config.overdue_slack is not None:
            return self.config.overdue_slack
        bound = self._recovery_latency_bound()
        if bound is None:
            return _STATIC_BUBBLE_BOUND
        if self.network.fault_injector is not None:
            bound *= 4  # SM faults stretch kill/unfreeze retries
        return bound

    @property
    def deadlock_bound(self) -> Optional[int]:
        """Effective deadlock-persistence bound (None = check disabled)."""
        return self._deadlock_bound

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, simulator) -> "InvariantOracle":
        """Register as an observer and hook delivery/loss accounting."""
        if self._attached:
            raise ConfigurationError("oracle already attached")
        self._attached = True
        # Fault injectors bind between spec build and simulate; re-derive
        # the bounds now that the network is in its final shape.
        self._deadlock_bound = self._auto_deadlock_bound()
        self._overdue_slack = self._auto_overdue_slack()
        self._hook_network()
        simulator.register_observer(self)
        return self

    def _hook_network(self) -> None:
        network = self.network
        inner_deliver = network.deliver
        inner_loss = network.stats.record_loss

        def checked_deliver(packet, router_id, eject_port, now):
            self._on_deliver(packet, router_id, eject_port, now)
            inner_deliver(packet, router_id, eject_port, now)

        def counted_loss(packet, now):
            self._pending_exits.add(packet.uid)
            inner_loss(packet, now)

        network.deliver = checked_deliver
        network.stats.record_loss = counted_loss

    def _on_deliver(self, packet, router_id: int, eject_port: int,
                    now: int) -> None:
        uid = packet.uid
        if self._enabled("duplicate_delivery") and uid in self._delivered_ever:
            self._emit(InvariantViolation(
                "packet delivered twice",
                invariant="duplicate_delivery", packet=uid, cycle=now,
                router=router_id))
        self._delivered_ever.add(uid)
        self._pending_exits.add(uid)
        if self._enabled("misdelivery"):
            expected_port = self.network.eject_port_for(packet.dst_node)
            if (router_id != packet.dst_router
                    or eject_port != expected_port):
                self._emit(InvariantViolation(
                    "packet ejected at a foreign NIC",
                    invariant="misdelivery", packet=uid, cycle=now,
                    router=router_id, port=eject_port,
                    dst_router=packet.dst_router, dst_port=expected_port))
        if self.config.journal:
            self.delivered_signatures.append(
                (packet.src_node, packet.dst_node, packet.length,
                 packet.vnet, packet.create_cycle))

    # ------------------------------------------------------------------
    # Observer hook
    # ------------------------------------------------------------------
    def phase_collect(self, cycle: int) -> None:
        if self._saturated or cycle % self.config.check_interval:
            return
        for violation in self._sweep(cycle):
            self._emit(violation)

    def check_now(self, cycle: Optional[int] = None
                  ) -> List[InvariantViolation]:
        """One full sweep against the current state; never raises.

        Returns the violations found by *this* call (they are also
        recorded).  The cycle defaults to the network's current time.
        """
        if cycle is None:
            cycle = self.network.now
        found = self._sweep(cycle)
        for violation in found:
            self._record(violation)
        return found

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def _sweep(self, cycle: int) -> List[InvariantViolation]:
        config = self.config
        enabled = (set(INVARIANTS) if config.checks is None
                   else set(config.checks))
        found: List[InvariantViolation] = []
        for name, checker in STATELESS_CHECKS.items():
            if name in enabled:
                found.extend(checker(self.network, cycle))
        if "freeze_legality" in enabled:
            found.extend(check_freeze_legality(
                self.network, cycle, self._overdue_slack))
        consecutive = (self._census_cycle is not None
                       and cycle - self._census_cycle == 1)
        census = {
            uid: (location, packet.hops, packet)
            for uid, packet, location in iter_resident(self.network)
        }
        if self._census_cycle is not None:
            if "packet_conservation" in enabled:
                found.extend(self._check_conservation(census, cycle))
            if "teleport" in enabled and consecutive:
                found.extend(self._check_teleport(census, cycle))
        self._census = census
        self._census_cycle = cycle
        if "fsm_transition" in enabled:
            found.extend(self._check_fsm_transitions(cycle, consecutive))
        if "link_accounting" in enabled:
            found.extend(self._check_link_monotonicity(cycle))
        if ("deadlock_persistence" in enabled
                and self._deadlock_bound is not None
                and self.network.fault_injector is None
                and self._due_for_deadlock_check(cycle)):
            found.extend(self._check_deadlock_persistence(census, cycle))
        return found

    # --- packet conservation & teleport ---
    def _check_conservation(self, census, cycle: int):
        pending = self._pending_exits
        for uid, (location, _, _) in self._census.items():
            if uid in census:
                continue
            if uid in pending:
                pending.discard(uid)
            else:
                yield InvariantViolation(
                    "packet vanished without delivery or counted loss",
                    invariant="packet_conservation", packet=uid,
                    cycle=cycle, last_seen=location)

    def _check_teleport(self, census, cycle: int):
        previous = self._census
        neighbors = self._neighbors
        for uid, (location, _, _) in census.items():
            before = previous.get(uid)
            if before is None or before[0] == location:
                continue
            prev_loc = before[0]
            if location[0] == "vc":
                router = location[1]
                if prev_loc[0] == "vc":
                    legal = (prev_loc[1] == router
                             or router in neighbors.get(prev_loc[1], ()))
                else:  # nic -> vc: must enter the NIC's own router
                    legal = self._nic_router.get(prev_loc[1]) == router
            else:
                legal = False  # packets never re-enter a NIC queue
            if not legal:
                yield InvariantViolation(
                    "packet moved more than one hop in one cycle",
                    invariant="teleport", packet=uid, cycle=cycle,
                    before=prev_loc, after=location)

    # --- FSM transitions ---
    def _check_fsm_transitions(self, cycle: int, consecutive: bool):
        spin = self.network.spin
        if spin is None:
            return
        states = [controller.state for controller in spin.controllers]
        previous = self._fsm_states
        self._fsm_states = states
        if previous is None or not consecutive:
            return
        for router_id, (before, after) in enumerate(zip(previous, states)):
            if after is before:
                continue
            if after in ILLEGAL_TRANSITIONS.get(before, ()):
                yield InvariantViolation(
                    "illegal SPIN FSM transition",
                    invariant="fsm_transition", router=router_id,
                    cycle=cycle, before=before.name, after=after.name)

    # --- link counters ---
    def _check_link_monotonicity(self, cycle: int):
        marks = self._link_marks
        for key, link in self.network.links.items():
            mark = marks.get(key)
            current = (link.measure_from, link.flit_cycles, link.sm_cycles)
            marks[key] = current
            if mark is None or mark[0] != current[0]:
                continue  # first sight or a utilization reset: new epoch
            if current[1] < mark[1] or current[2] < mark[2]:
                yield InvariantViolation(
                    "link utilization counter ran backwards",
                    invariant="link_accounting", link=key, cycle=cycle,
                    before=mark[1:], after=current[1:])

    # --- deadlock persistence ---
    def _due_for_deadlock_check(self, cycle: int) -> bool:
        last = self._last_deadlock_check
        if (last is not None
                and cycle - last < self.config.deadlock_check_interval):
            return False
        self._last_deadlock_check = cycle
        return True

    def _check_deadlock_persistence(self, census, cycle: int):
        bound = self._deadlock_bound
        deadlocked = find_deadlocked_packets(self.network, cycle)
        seen = self._deadlock_seen
        confirmed: Dict[int, Tuple[int, int]] = {}
        for uid in deadlocked:
            entry = census.get(uid)
            hops = entry[1] if entry is not None else -1
            before = seen.get(uid)
            if before is not None and before[1] == hops:
                first = before[0]
                if cycle - first > bound:
                    yield InvariantViolation(
                        "true deadlock outlived the recovery bound",
                        invariant="deadlock_persistence", packet=uid,
                        cycle=cycle, since=first, bound=bound,
                        deadlocked=len(deadlocked))
                confirmed[uid] = (first, hops)
            else:
                confirmed[uid] = (cycle, hops)  # new, or made hop progress
        self._deadlock_seen = confirmed

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def _enabled(self, name: str) -> bool:
        checks = self.config.checks
        return checks is None or name in checks

    def _site_key(self, violation: InvariantViolation) -> tuple:
        context = violation.context
        return (violation.invariant,) + tuple(
            (key, context[key]) for key in
            ("router", "inport", "vc", "packet", "link", "source", "state")
            if key in context)

    def _record(self, violation: InvariantViolation) -> None:
        self.violation_count += 1
        stats = self.network.stats
        stats.count("invariant_violations")
        stats.count(f"violation_{violation.invariant}")
        site = self._site_key(violation)
        if site not in self._seen_sites:
            self._seen_sites.add(site)
            self.violations.append(violation)
        if len(self.violations) >= self.config.max_violations:
            self._saturated = True
            stats.count("oracle_saturated")

    def _emit(self, violation: InvariantViolation) -> None:
        self._record(violation)
        if self.config.mode == "raise":
            raise violation
