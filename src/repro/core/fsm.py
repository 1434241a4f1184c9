"""SPIN counter-FSM states (paper Fig. 4a).

Every router carries one counter with a seven-state FSM.  The upper half of
the paper's figure (MOVE, FORWARD_PROGRESS, PROBE_MOVE, KILL_MOVE) applies
to the recovery-*initiating* router; the lower half (DD, FROZEN) to the
other routers of a deadlocked chain; OFF is shared.
"""

from __future__ import annotations

from enum import Enum


class SpinState(Enum):
    """States of the per-router SPIN counter FSM."""

    #: No occupied VCs to watch.
    OFF = "off"
    #: Deadlock detection: counting down ``tDD`` on a pointed VC.
    DD = "dd"
    #: (initiator) Probe returned; move sent; awaiting its return.
    MOVE = "move"
    #: (non-initiator) A VC is frozen; counting to the spin cycle.
    FROZEN = "frozen"
    #: (initiator) Move returned; counting to the spin cycle.
    FORWARD_PROGRESS = "forward_progress"
    #: (initiator) Spin done; probe_move sent (or scheduled); awaiting return.
    PROBE_MOVE = "probe_move"
    #: (initiator) Recovery failed mid-way; kill_move sent; awaiting return.
    KILL_MOVE = "kill_move"


#: The members as module constants, for the per-cycle code (controller
#: ticks, SM handlers, due times): before CPython 3.12 every
#: ``SpinState.X`` read goes through the enum metaclass's ``__getattr__``
#: hook, ~0.15 µs against ~0.02 µs for a global.
OFF = SpinState.OFF
DD = SpinState.DD
MOVE = SpinState.MOVE
FROZEN = SpinState.FROZEN
FORWARD_PROGRESS = SpinState.FORWARD_PROGRESS
PROBE_MOVE = SpinState.PROBE_MOVE
KILL_MOVE = SpinState.KILL_MOVE

#: States in which this router is the active recovery initiator.
INITIATOR_STATES = frozenset({
    SpinState.MOVE,
    SpinState.FORWARD_PROGRESS,
    SpinState.PROBE_MOVE,
    SpinState.KILL_MOVE,
})

#: States the move manager may interrupt into FROZEN when a move /
#: probe_move freezes a VC here (``SpinController._freeze``); an initiator
#: mid-recovery keeps its own state and only records the freeze token.
FREEZABLE_STATES = frozenset({SpinState.OFF, SpinState.DD})

#: The **atomic** transition relation: ``state -> states one controller
#: handler call may move it to`` (paper Fig. 4a edges plus the defensive
#: resets the implementation adds).  "Atomic" means a single handler —
#: one SM reception, one executor callback, one watchdog/escape tick —
#: which is the granularity the model checker
#: (:mod:`repro.verify.model`) steps at and audits this table against.
#: The per-cycle relation the runtime oracle checks
#: (:data:`repro.verify.invariants.ILLEGAL_TRANSITIONS`) is strictly
#: looser, because one cycle chains several handlers (a spin callback,
#: then a batch of SM arrivals, then the tick).
LEGAL_ATOMIC_TRANSITIONS = {
    # Occupancy wakes the counter; _freeze defensively covers OFF too.
    SpinState.OFF: frozenset({SpinState.DD, SpinState.FROZEN}),
    # _go_off / _accept_own_probe / _freeze.
    SpinState.DD: frozenset({
        SpinState.OFF, SpinState.MOVE, SpinState.FROZEN,
    }),
    # Own move returned / kills (watchdog, rival latch, stale VC) /
    # on_spin_complete-on_spin_aborted resets.
    SpinState.MOVE: frozenset({
        SpinState.FORWARD_PROGRESS, SpinState.KILL_MOVE, SpinState.DD,
    }),
    # Thaw by kill_move, overdue escape, spin completion.
    SpinState.FROZEN: frozenset({SpinState.DD}),
    # Spin complete (to PROBE_MOVE when the repeat-spin optimization is
    # on), abort, overdue escape.
    SpinState.FORWARD_PROGRESS: frozenset({
        SpinState.DD, SpinState.PROBE_MOVE,
    }),
    # Own probe_move returned / kills / abort and spin resets.
    SpinState.PROBE_MOVE: frozenset({
        SpinState.FORWARD_PROGRESS, SpinState.KILL_MOVE, SpinState.DD,
    }),
    # Own kill returned or retries exhausted: _finish_recovery, whose
    # pointer sweep may find no occupied VC and park the counter OFF.
    SpinState.KILL_MOVE: frozenset({SpinState.DD, SpinState.OFF}),
}
