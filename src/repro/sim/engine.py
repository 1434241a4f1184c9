"""The cycle loop.

The simulator is deliberately simple: a :class:`Simulator` owns a current
cycle counter and a list of components, and advances them in phase order once
per cycle.  Components implement any subset of the phase hooks below; the
network substrate (:mod:`repro.network.network`) is the main component and
internally sequences its own sub-phases (SM processing, switch allocation,
link delivery) in the order required by the SPIN implementation.

Phases per cycle, in order:

1. ``phase_deliver``   — in-flight flits/SMs whose arrival time is now land.
2. ``phase_control``   — control planes run (SPIN FSMs, recovery baselines).
3. ``phase_inject``    — traffic sources hand new packets to NICs, NICs
   push packets into router input VCs.
4. ``phase_allocate``  — switch allocation; granted packets start traversing.
5. ``phase_collect``   — statistics and invariant checks.
"""

from __future__ import annotations

from typing import List, Protocol


class Component(Protocol):
    """Anything that participates in the cycle loop.

    All hooks are optional; the simulator calls only the ones a component
    defines.
    """

    def phase_deliver(self, cycle: int) -> None: ...

    def phase_control(self, cycle: int) -> None: ...

    def phase_inject(self, cycle: int) -> None: ...

    def phase_allocate(self, cycle: int) -> None: ...

    def phase_collect(self, cycle: int) -> None: ...


_PHASES = (
    "phase_deliver",
    "phase_control",
    "phase_inject",
    "phase_allocate",
    "phase_collect",
)


class Simulator:
    """Advances registered components through the per-cycle phases.

    This is the ``reference`` engine of the :class:`repro.sim.SimulatorEngine`
    protocol: the straightforward per-object loop every other subsystem is
    validated against.  See :mod:`repro.sim.engine_api` for engine selection
    and :mod:`repro.sim.fastcore` for the event-driven ``fast`` engine.
    """

    #: Engine registry name (see repro.sim.engine_api).
    name = "reference"
    #: Which datapath the schedule runs: always the per-object one here.
    #: The ``fast`` engine reports ``"soa"`` when its compiled core applies
    #: and gives the reason in ``fallback_reason`` when it does not.
    engine_path = "reference-schedule"
    fallback_reason = None

    def __init__(self) -> None:
        self.cycle = 0
        self._components: List[object] = []
        self._observers: List[object] = []
        self._profiler = None
        # Resolved (component, bound method) pairs per phase, built lazily so
        # the hot loop does not pay getattr costs every cycle.
        self._schedule = None

    def register(self, component: object) -> None:
        """Add a component to the cycle loop (in registration order)."""
        self._components.append(component)
        self._schedule = None

    def register_observer(self, observer: object) -> None:
        """Add a read-only observer that runs *after* every component.

        Observers implement the same phase hooks as components but are
        sequenced last within each phase regardless of registration order,
        so per-cycle checkers (the :mod:`repro.verify` invariant oracle,
        trace recorders) always see the settled state of the cycle.  When
        no observer is registered the hot loop is byte-for-byte the
        schedule it always was — observation is zero-cost when disabled.
        """
        self._observers.append(observer)
        self._schedule = None

    def attach_profiler(self, profiler):
        """Attach a :class:`repro.sim.profile.PhaseProfiler` (or detach
        with ``None``).

        Profiling is applied when the schedule is (re)built: each phase's
        bound-method list is fused into one timed closure.  With no
        profiler attached the schedule is exactly the unprofiled one, so
        the hot loop pays nothing when profiling is off.
        """
        self._profiler = profiler
        self._schedule = None
        return profiler

    def _wrap_schedule(self, schedule):
        if self._profiler is None:
            return schedule
        prefix = len("phase_")
        return [
            [self._profiler.wrap_phase(phase[prefix:], bound)]
            for phase, bound in zip(_PHASES, schedule)
        ]

    def _bound_schedule(self):
        """Per phase, the bound hooks of components then observers."""
        return [
            [getattr(member, phase)
             for member in (*self._components, *self._observers)
             if hasattr(member, phase)]
            for phase in _PHASES
        ]

    def _build_schedule(self):
        return self._wrap_schedule(self._bound_schedule())

    def step(self) -> None:
        """Simulate exactly one cycle."""
        if self._schedule is None:
            self._schedule = self._build_schedule()
        cycle = self.cycle
        for bound_methods in self._schedule:
            for method in bound_methods:
                method(cycle)
        self.cycle = cycle + 1

    def run(self, cycles: int) -> None:
        """Simulate the given number of cycles."""
        for _ in range(cycles):
            self.step()

    def run_until(self, predicate, max_cycles: int) -> bool:
        """Step until ``predicate()`` is true or ``max_cycles`` elapse.

        Returns:
            True if the predicate became true, False on cycle exhaustion.
        """
        for _ in range(max_cycles):
            if predicate():
                return True
            self.step()
        return predicate()
