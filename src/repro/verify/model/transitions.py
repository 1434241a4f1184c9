"""Successor generation: the abstract SPIN protocol rules.

Each rule mirrors one handler of :class:`repro.core.controller
.SpinController` (cross-referenced below), restricted to a single
deadlocked loop with abstracted time:

* ``detect@i``       — ``_tick_detection`` firing and ``_send_probe``;
* ``deliver <sm>@i`` — one SM hop: ``phase_control`` delivery plus the
  receiving handler (``on_sm``'s probe branch / ``_on_move`` /
  ``_on_kill_move``);
* ``drop <sm>@i``    — adversarial bufferless loss (link contention, a
  fault, or a strict-priority drop), budgeted by ``drops_left``;
* ``watchdog@i``     — a counter timeout (``tick``); enabled only once the
  awaited SM is provably gone, because real timeouts exceed the round-trip
  bound (``sm_rtt_bound``) — a fired watchdog implies a loss;
* ``escape@i``       — the FROZEN overdue escape in ``tick``;
* ``spin@i`` / ``abort@i`` — the executor callbacks
  (``on_spin_complete`` / ``on_spin_aborted``).

Rival arbitration (``_yields_to_rival_initiator``) uses a *rotating*
priority in the concrete protocol; with time abstracted away the model
explores **both** outcomes of every rival encounter, a sound
over-approximation of any priority schedule that also keeps the loop's
rotational symmetry intact.

Deliberate protocol mutations (:data:`MUTATIONS`) switch individual rules
to known-broken variants so the checker demonstrably finds — and the
round-trip suite replays — the violations each guard exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Tuple

from repro.core.fsm import FREEZABLE_STATES, SpinState
from repro.verify.model.state import (
    NOBODY,
    GlobalState,
    Message,
    RouterModel,
)

#: Mutation name -> description of the guard it removes.
MUTATIONS: Dict[str, str] = {
    "freeze_ignores_state_guard":
        "_freeze flips any state to FROZEN, not just OFF/DD — an initiator "
        "mid-recovery is silently demoted (illegal FSM transition)",
    "progress_skips_home_guards":
        "_on_own_move_returned omits the rival-latch and freezable-VC "
        "kills, force-latching over a rival's freeze token (duplicate "
        "spin token)",
    "kill_return_declares_progress":
        "a returning kill_move is miscounted as forward progress: the "
        "deadlock is marked resolved although nothing rotated (lost "
        "deadlock)",
}


@dataclass(frozen=True)
class ModelConfig:
    """Knobs of one exhaustive run.

    Attributes:
        loop_size: Routers on the abstract deadlock loop.
        probe_budget: Detection probes each router may originate.
        drop_budget: Adversarial SM losses across the whole run.
        probe_move_enabled: Model the Sec. IV-B4 repeat-spin optimization.
        initiators: How many loop routers get a detection budget; 1 is the
            liveness/bound mode (the rotating priority's surviving winner,
            pinned), None arms everyone (the safety race mode).
        mutation: Name from :data:`MUTATIONS`, or None for the faithful
            protocol.
    """

    loop_size: int
    probe_budget: int = 1
    drop_budget: int = 0
    probe_move_enabled: bool = False
    initiators: int = None
    mutation: str = None

    def __post_init__(self):
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {self.mutation!r}; "
                             f"known: {sorted(MUTATIONS)}")


def successors(state: GlobalState, config: ModelConfig
               ) -> Iterator[Tuple[str, GlobalState]]:
    """All ``(action label, next state)`` pairs enabled in ``state``."""
    n = state.size
    for i in range(n):
        if _may_detect(state, i):
            yield f"detect@{i}", _detect(state, i)
        if _watchdog_enabled(state, i):
            yield f"watchdog@{i}", _watchdog(state, i, config)
        if _escape_enabled(state, i):
            yield f"escape@{i}", _escape(state, i)
        router = state.routers[i]
        if router.fsm is SpinState.FORWARD_PROGRESS:
            if all(r.frozen_by == i for r in state.routers):
                yield f"spin@{i}", _spin(state, i, config)
            else:
                yield f"abort@{i}", _abort(state, i)
    for index, message in enumerate(state.messages):
        label = f"{message.kind}@{message.at}"
        for outcome, nxt in _deliver(state, index, config):
            yield f"deliver {label} ({outcome})", nxt
        if state.drops_left > 0:
            yield f"drop {label}", _drop(state, index)


# ----------------------------------------------------------------------
# Detection (controller._tick_detection / _send_probe)
# ----------------------------------------------------------------------
def _may_detect(state: GlobalState, i: int) -> bool:
    router = state.routers[i]
    return (
        not state.resolved                     # loop VC still stuck
        and router.fsm is SpinState.DD
        and router.frozen_by == NOBODY         # _tick_detection: not frozen
        and router.probes_left > 0
        and not any(m.kind == "probe" and m.origin == i
                    for m in state.messages)   # one own probe outstanding
    )


def _detect(state: GlobalState, i: int) -> GlobalState:
    router = state.routers[i]
    nxt = state.with_router(i, replace(router,
                                       probes_left=router.probes_left - 1))
    probe = Message("probe", origin=i, at=(i + 1) % state.size, hops=1)
    return nxt.with_messages(nxt.messages + (probe,))


# ----------------------------------------------------------------------
# Watchdogs and the FROZEN escape (controller.tick)
# ----------------------------------------------------------------------
_AWAITED = {
    SpinState.MOVE: "move",
    SpinState.PROBE_MOVE: "probe_move",
    SpinState.KILL_MOVE: "kill_move",
}


def _watchdog_enabled(state: GlobalState, i: int) -> bool:
    awaited = _AWAITED.get(state.routers[i].fsm)
    if awaited is None:
        return False
    # Timeouts exceed the round-trip bound, so the watchdog may only fire
    # once the awaited SM is no longer anywhere in flight.
    return not any(m.kind == awaited and m.origin == i
                   for m in state.messages)


def _watchdog(state: GlobalState, i: int, config: ModelConfig
              ) -> GlobalState:
    router = state.routers[i]
    if router.fsm in (SpinState.MOVE, SpinState.PROBE_MOVE):
        return _start_kill(state, i)
    # KILL_MOVE: retries exhausted in the abstraction -> _finish_recovery.
    return _finish_recovery(state, i)


def _escape_source(state: GlobalState, i: int) -> int:
    """The rival initiator whose abandoned token ``i`` carries, or NOBODY.

    Covers both the FROZEN overdue escape in ``tick`` and the executor's
    unconditional abort of an incomplete spin group at its spin cycle
    (``SpinExecutor._abort`` unfreezes every registered VC even when the
    router's own FSM has long moved on — e.g. back to DD after its own
    kill round while still carrying a rival's freeze token).
    """
    router = state.routers[i]
    source = router.latched if router.latched != NOBODY else router.frozen_by
    return NOBODY if source == i else source


def _escape_enabled(state: GlobalState, i: int) -> bool:
    source = _escape_source(state, i)
    if source == NOBODY:
        return False
    # The spin deadline can only pass un-serviced once the initiator has
    # abandoned this recovery: it is no longer mid-protocol and none of its
    # SMs are still traveling the loop.
    initiator = state.routers[source]
    if initiator.fsm in (SpinState.MOVE, SpinState.FORWARD_PROGRESS,
                         SpinState.PROBE_MOVE, SpinState.KILL_MOVE):
        return False
    return not any(m.origin == source and m.kind != "probe"
                   for m in state.messages)


def _escape(state: GlobalState, i: int) -> GlobalState:
    router = state.routers[i]
    source = _escape_source(state, i)
    frozen_by = NOBODY if router.frozen_by == source else router.frozen_by
    latched = NOBODY if router.latched == source else router.latched
    fsm = SpinState.DD if router.fsm is SpinState.FROZEN else router.fsm
    return state.with_router(i, replace(
        router, fsm=fsm, frozen_by=frozen_by, latched=latched))


# ----------------------------------------------------------------------
# Delivery (framework hop + controller.on_sm)
# ----------------------------------------------------------------------
def _deliver(state: GlobalState, index: int, config: ModelConfig
             ) -> Iterator[Tuple[str, GlobalState]]:
    message = state.messages[index]
    base = state.with_messages(state.messages[:index]
                               + state.messages[index + 1:])
    if message.kind == "probe":
        yield from _deliver_probe(base, message, config)
    elif message.kind in ("move", "probe_move"):
        yield from _deliver_move_family(base, message, config)
    else:
        yield from _deliver_kill(base, message, config)


def _forward(state: GlobalState, message: Message) -> GlobalState:
    advanced = replace(message, at=(message.at + 1) % state.size,
                       hops=message.hops + 1)
    return state.with_messages(state.messages + (advanced,))


def _deliver_probe(state: GlobalState, probe: Message, config: ModelConfig
                   ) -> Iterator[Tuple[str, GlobalState]]:
    i = probe.at
    router = state.routers[i]
    if i == probe.origin and router.fsm is SpinState.DD:
        # _accept_own_probe: home, still detecting.  The probed dependency
        # persists while the loop is unresolved and the VC unfrozen.
        if state.resolved or router.frozen_by != NOBODY:
            yield "stale", state                    # probes_stale: consume
            return
        move = Message("move", origin=i, at=(i + 1) % state.size, hops=1)
        nxt = state.with_router(i, replace(router, fsm=SpinState.MOVE))
        yield "accepted", nxt.with_messages(nxt.messages + (move,))
        return
    # _forward_probe: a non-home router (or a home router that has moved
    # on from DD — the controller falls through to forwarding) relays the
    # probe along the dependency, subject to the path-length cap
    # (``framework.max_probe_path``: twice the routers, all on the loop).
    if probe.hops >= 2 * config.loop_size:
        yield "len-drop", state
        return
    if state.resolved:
        # The rotated packets' requests are gone: nothing to trace.
        yield "no-dep", state
        return
    yield "forwarded", _forward(state, probe)


def _deliver_move_family(state: GlobalState, message: Message,
                         config: ModelConfig
                         ) -> Iterator[Tuple[str, GlobalState]]:
    i, origin = message.at, message.origin
    router = state.routers[i]
    if i == origin:
        yield from _move_returned(state, message, config)
        return
    # _on_move at a non-initiator hop (either kind):
    if router.latched not in (NOBODY, origin):
        yield "busy", state                   # <kind>s_dropped_busy
        return
    if router.fsm in (SpinState.MOVE, SpinState.PROBE_MOVE,
                      SpinState.KILL_MOVE):
        # Rival initiator: the rotating priority decides — explore both.
        yield "yield", state                  # <kind>s_dropped_priority
    if state.resolved or router.frozen_by != NOBODY:
        yield "no-dep", state                 # <kind>s_dropped_no_dependency
        return
    frozen = replace(router, frozen_by=origin, latched=origin)
    if router.fsm in FREEZABLE_STATES \
            or config.mutation == "freeze_ignores_state_guard":
        frozen = replace(frozen, fsm=SpinState.FROZEN)
    yield "froze", _forward(state.with_router(i, frozen), message)


def _move_returned(state: GlobalState, message: Message,
                   config: ModelConfig
                   ) -> Iterator[Tuple[str, GlobalState]]:
    i = message.at
    router = state.routers[i]
    expected = (SpinState.MOVE if message.kind == "move"
                else SpinState.PROBE_MOVE)
    if router.fsm is not expected:
        yield "stale", state                  # <kind>s_stale / spin mismatch
        return
    latched = replace(router, fsm=SpinState.FORWARD_PROGRESS,
                      frozen_by=i, latched=i)
    if config.mutation == "progress_skips_home_guards":
        # Both home guards gone: force-latch over whatever token owns the
        # VC — the checker sees the rival's freeze token overwritten.
        yield "progress", state.with_router(i, latched)
        return
    if router.latched not in (NOBODY, i):
        yield "rival-kill", _start_kill(state, i)
        return
    if state.resolved or router.frozen_by != NOBODY:
        # _freezable_vc failed at home: cancel the scheduled spin.
        yield "no-dep-kill", _start_kill(state, i)
        return
    yield "progress", state.with_router(i, latched)


def _deliver_kill(state: GlobalState, kill: Message, config: ModelConfig
                  ) -> Iterator[Tuple[str, GlobalState]]:
    i, origin = kill.at, kill.origin
    router = state.routers[i]
    if i == origin:
        if router.fsm is SpinState.KILL_MOVE:
            nxt = _finish_recovery(state, i)
            if config.mutation == "kill_return_declares_progress":
                nxt = replace(nxt, resolved=True)
            yield "finished", nxt
        else:
            yield "stale", state
        return
    if router.latched not in (NOBODY, origin):
        yield "busy", state                   # kill_moves_dropped_busy
        return
    thawed = router
    if router.frozen_by == origin:
        thawed = replace(thawed, frozen_by=NOBODY)
    if router.latched == origin:
        thawed = replace(thawed, latched=NOBODY)
        if router.fsm is SpinState.FROZEN:
            thawed = replace(thawed, fsm=SpinState.DD)
    yield "thawed", _forward(state.with_router(i, thawed), kill)


def _drop(state: GlobalState, index: int) -> GlobalState:
    return replace(
        state.with_messages(state.messages[:index]
                            + state.messages[index + 1:]),
        drops_left=state.drops_left - 1)


# ----------------------------------------------------------------------
# Initiator bookkeeping (controller._start_kill / _finish_recovery)
# ----------------------------------------------------------------------
def _start_kill(state: GlobalState, i: int) -> GlobalState:
    router = state.routers[i]
    nxt = state.with_router(i, replace(router, fsm=SpinState.KILL_MOVE))
    kill = Message("kill_move", origin=i, at=(i + 1) % state.size, hops=1)
    return nxt.with_messages(nxt.messages + (kill,))


def _finish_recovery(state: GlobalState, i: int) -> GlobalState:
    router = state.routers[i]
    frozen_by = router.frozen_by
    latched = router.latched
    if latched == i:                     # self-latch: unfreeze own VC too
        latched = NOBODY
        if frozen_by == i:
            frozen_by = NOBODY
    return state.with_router(i, replace(
        router, fsm=SpinState.DD, frozen_by=frozen_by, latched=latched))


# ----------------------------------------------------------------------
# The spin itself (executor callbacks)
# ----------------------------------------------------------------------
def _spin(state: GlobalState, i: int, config: ModelConfig) -> GlobalState:
    routers = []
    for j, router in enumerate(state.routers):
        # Every participant: on_spin_complete clears the move manager.
        updated = replace(router, frozen_by=NOBODY, latched=NOBODY)
        if j == i and config.probe_move_enabled:
            updated = replace(updated, fsm=SpinState.PROBE_MOVE)
        else:
            updated = replace(updated, fsm=SpinState.DD)
        routers.append(updated)
    nxt = replace(state, routers=tuple(routers), resolved=True)
    if config.probe_move_enabled:
        pm = Message("probe_move", origin=i, at=(i + 1) % state.size, hops=1)
        nxt = nxt.with_messages(nxt.messages + (pm,))
    return nxt


def _abort(state: GlobalState, i: int) -> GlobalState:
    """on_spin_aborted for every router the broken group registered."""
    routers = []
    for j, router in enumerate(state.routers):
        if j == i or router.frozen_by == i:
            updated = replace(router, frozen_by=NOBODY
                              if router.frozen_by == i else router.frozen_by,
                              latched=NOBODY
                              if router.latched == i else router.latched)
            if updated.fsm in (SpinState.FROZEN,
                               SpinState.FORWARD_PROGRESS):
                updated = replace(updated, fsm=SpinState.DD)
            routers.append(updated)
        else:
            routers.append(router)
    return replace(state, routers=tuple(routers))
