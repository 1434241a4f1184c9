"""Safety and bounded-liveness properties of the abstract control plane.

Safety properties are checked on every explored transition; each carries
the name of the PR 3 invariant family its concrete counterpart trips
(:data:`PROPERTY_TO_INVARIANT`), which is what lets a model counterexample
round-trip into a failing golden scenario.

* ``fsm_legality``      — every per-router FSM delta respects
  :data:`repro.verify.invariants.ATOMIC_ILLEGAL_TRANSITIONS` (derived
  from the FSM's own transition table, imported — not re-derived — so
  model and catalog can never drift apart).  Model steps are atomic
  (one handler each), so the checker enforces the strict per-handler
  relation; the runtime oracle's looser per-cycle catalog
  (``ILLEGAL_TRANSITIONS``) is in turn audited against what the checker
  observes (tests/unit/test_fsm_legality.py);
* ``single_spin_token`` — at most one initiator holds a committed spin
  (FORWARD_PROGRESS), a committed spin owns every frozen VC of the loop,
  and a freeze token is never overwritten by a rival (it may only be
  cleared by kill / spin / abort / escape);
* ``lost_deadlock``     — the deadlock may only be declared resolved by an
  actual synchronized spin; no bookkeeping path loses it.

Bounded liveness is a whole-graph analysis (:func:`analyze_liveness`), run
after exhaustive exploration:

* the reachable graph must be **acyclic** (every action consumes a budget
  or makes monotone protocol progress — a cycle would be an adversarial
  livelock the budgets failed to break);
* every terminal state must be *resolved* (a spin happened) or — outside
  the pinned single-initiator lossless mode — *clean* (nothing frozen,
  nothing latched, no SM in flight: initiator races and adversarial
  losses may mutually cancel a round, degrading the protocol to plain
  detection, which the next ``tDD`` round re-enters beyond the model
  horizon);
* the longest path to the first committed recovery and to resolution,
  weighted with the design's concrete per-action cycle costs, must sit
  within the theory's recovery-latency bound
  (:func:`repro.deadlock.waitgraph.spin_persistence_bound` — the same
  bound the runtime oracle enforces on live simulations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.fsm import SpinState
from repro.verify.invariants import ATOMIC_ILLEGAL_TRANSITIONS
from repro.verify.model.state import NOBODY, GlobalState

#: Model property -> concrete invariant family (repro.verify.invariants).
PROPERTY_TO_INVARIANT: Dict[str, str] = {
    "fsm_legality": "fsm_transition",
    "single_spin_token": "freeze_token_uniqueness",
    "lost_deadlock": "deadlock_persistence",
}


@dataclass(frozen=True)
class PropertyViolation:
    """One safety property broken by one transition."""

    prop: str
    detail: str
    router: Optional[int] = None

    @property
    def invariant(self) -> str:
        """The concrete invariant family this maps onto."""
        return PROPERTY_TO_INVARIANT[self.prop]


def check_transition(prev: GlobalState, action: str, state: GlobalState
                     ) -> List[PropertyViolation]:
    """All safety violations introduced by ``prev --action--> state``."""
    found: List[PropertyViolation] = []
    found.extend(_check_fsm_legality(prev, state))
    found.extend(_check_spin_token(prev, state))
    found.extend(_check_lost_deadlock(prev, action, state))
    return found


def _check_fsm_legality(prev: GlobalState, state: GlobalState):
    for i, (before, after) in enumerate(zip(prev.routers, state.routers)):
        if after.fsm is before.fsm:
            continue
        if after.fsm in ATOMIC_ILLEGAL_TRANSITIONS.get(before.fsm, ()):
            yield PropertyViolation(
                "fsm_legality",
                f"router {i}: {before.fsm.name} -> {after.fsm.name}",
                router=i)


def _check_spin_token(prev: GlobalState, state: GlobalState):
    committed = [i for i, r in enumerate(state.routers)
                 if r.fsm is SpinState.FORWARD_PROGRESS]
    if len(committed) > 1:
        yield PropertyViolation(
            "single_spin_token",
            f"{len(committed)} simultaneous committed spins at "
            f"{committed}")
    # A freeze token may be cleared, never usurped by another initiator.
    for i, (before, after) in enumerate(zip(prev.routers, state.routers)):
        if (before.frozen_by != NOBODY and after.frozen_by != NOBODY
                and after.frozen_by != before.frozen_by):
            yield PropertyViolation(
                "single_spin_token",
                f"router {i}: freeze token {before.frozen_by} overwritten "
                f"by {after.frozen_by}", router=i)
    # A committed spin owns its whole loop: FORWARD_PROGRESS implies every
    # frozen VC carries the initiator's token.
    for i in committed:
        foreign = [j for j, r in enumerate(state.routers)
                   if r.frozen_by not in (NOBODY, i)]
        if foreign:
            yield PropertyViolation(
                "single_spin_token",
                f"initiator {i} committed while routers {foreign} are "
                f"frozen by a rival token", router=i)


def _check_lost_deadlock(prev: GlobalState, action: str,
                         state: GlobalState):
    if state.resolved and not prev.resolved \
            and not action.startswith("spin@"):
        yield PropertyViolation(
            "lost_deadlock",
            f"deadlock declared resolved by {action!r}, not by a spin")


# ----------------------------------------------------------------------
# Bounded liveness
# ----------------------------------------------------------------------
@dataclass
class ActionWeights:
    """Concrete worst-case cycle cost of each abstract action kind.

    Derived from one design's :class:`~repro.config.SpinParams` and link
    latencies; see :meth:`from_design`.  ``detect`` charges a full ``tDD``
    (each router's successive probes are at least a detection period
    apart), ``deliver`` one SM hop, ``watchdog`` the SM round-trip bound
    its timeout is derived from, ``spin`` the synchronized-countdown
    window ``2 * loop_delay``.
    """

    detect: int
    deliver: int
    watchdog: int
    spin: int
    drop: int = 0

    def of(self, action: str) -> int:
        kind = action.split("@")[0].split(" ")[0]
        if kind == "detect":
            return self.detect
        if kind == "deliver":
            return self.deliver
        if kind in ("watchdog", "escape"):
            return self.watchdog
        if kind in ("spin", "abort"):
            return self.spin
        return self.drop


@dataclass
class LivenessReport:
    """Graph-level liveness verdicts and concrete bound cross-checks."""

    acyclic: bool
    terminal_states: int
    resolved_terminals: int
    degraded_terminals: int
    stuck_terminals: List[GlobalState] = field(default_factory=list)
    #: Longest path (steps / weighted cycles) to the first committed
    #: recovery (a FORWARD_PROGRESS entry) over paths that reach one.
    detection_steps: int = 0
    detection_cycles: int = 0
    #: Longest path (steps / weighted cycles) from formation to a
    #: resolving spin.
    recovery_steps: int = 0
    recovery_cycles: int = 0
    persistence_bound: Optional[int] = None

    @property
    def live(self) -> bool:
        return self.acyclic and not self.stuck_terminals

    @property
    def bounds_proved(self) -> Optional[bool]:
        if self.persistence_bound is None or not self.live:
            return None
        return self.recovery_cycles <= self.persistence_bound


def analyze_liveness(edges: List[Tuple[int, int, str]],
                     states: List[GlobalState],
                     weights: Optional[ActionWeights] = None,
                     persistence_bound: Optional[int] = None,
                     require_resolution: bool = True) -> LivenessReport:
    """Analyze the explored graph (states by index, ``edges`` directed).

    ``require_resolution``: when True (no adversarial drop budget), every
    terminal must be resolved; with drops allowed, a *clean* degraded
    terminal is accepted — see the module docstring.
    """
    n = len(states)
    out: List[List[Tuple[int, str]]] = [[] for _ in range(n)]
    indegree = [0] * n
    for src, dst, label in edges:
        out[src].append((dst, label))
        indegree[dst] += 1

    # Kahn topological order; leftovers mean a reachable cycle.
    order: List[int] = [i for i in range(n) if indegree[i] == 0]
    head = 0
    remaining = list(indegree)
    while head < len(order):
        node = order[head]
        head += 1
        for dst, _ in out[node]:
            remaining[dst] -= 1
            if remaining[dst] == 0:
                order.append(dst)
    acyclic = len(order) == n

    terminals = [i for i in range(n) if not out[i]]
    resolved = [i for i in terminals if states[i].resolved]
    stuck: List[GlobalState] = []
    degraded = 0
    for i in terminals:
        if states[i].resolved:
            continue
        if not require_resolution and _is_clean_degradation(states[i]):
            degraded += 1
        else:
            stuck.append(states[i])

    report = LivenessReport(
        acyclic=acyclic, terminal_states=len(terminals),
        resolved_terminals=len(resolved), degraded_terminals=degraded,
        stuck_terminals=stuck, persistence_bound=persistence_bound)
    if not acyclic:
        return report

    # Longest-path DP over the topological order, in unit steps and in
    # concrete worst-case cycles.
    steps = [0] * n
    cycles = [0] * n
    for node in order:
        for dst, label in out[node]:
            weight = weights.of(label) if weights is not None else 0
            if steps[node] + 1 > steps[dst]:
                steps[dst] = steps[node] + 1
            if cycles[node] + weight > cycles[dst]:
                cycles[dst] = cycles[node] + weight
    # Milestones are *entries*: the first state of a path that commits a
    # spin / is resolved — post-milestone drain steps must not inflate the
    # bound.
    def has_commit(i: int) -> bool:
        return any(r.fsm is SpinState.FORWARD_PROGRESS
                   for r in states[i].routers)

    first_commits = {dst for src, dst, _ in edges
                     if has_commit(dst) and not has_commit(src)}
    first_resolved = {dst for src, dst, _ in edges
                      if states[dst].resolved and not states[src].resolved}
    if first_commits:
        report.detection_steps = max(steps[i] for i in first_commits)
        report.detection_cycles = max(cycles[i] for i in first_commits)
    if first_resolved:
        report.recovery_steps = max(steps[i] for i in first_resolved)
        report.recovery_cycles = max(cycles[i] for i in first_resolved)
    return report


def _is_clean_degradation(state: GlobalState) -> bool:
    """Unresolved but safe: nothing frozen/latched/in flight — the next
    detection round (beyond the model horizon) starts from scratch."""
    if state.messages:
        return False
    return all(
        r.frozen_by == NOBODY and r.latched == NOBODY
        and r.fsm in (SpinState.OFF, SpinState.DD)
        for r in state.routers)
