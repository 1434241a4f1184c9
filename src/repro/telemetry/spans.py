"""SPIN control-plane span tracing.

The paper's headline temporal claims are *episode* latencies: how long from
the tDD countdown to the probe's return (detection), from the move to the
synchronized spin (recovery), and how many spins one deadlock needs.  The
:class:`SpanTracer` reconstructs those episodes from the per-router FSM of
:mod:`repro.core.fsm` without touching the control plane: it watches each
:class:`~repro.core.controller.SpinController`'s settled state once per
cycle (from the telemetry observer, which runs *after* every component) and
turns state transitions into :class:`SpinSpan` records.

Transition grammar (initiator side)::

    DD --------------------> MOVE        span opens (probe returned; the
                                          probe was sent loop_delay cycles
                                          earlier, after a full tDD count)
    MOVE/PROBE_MOVE -------> FORWARD_PROGRESS   move round trip completed
    FORWARD_PROGRESS exit at the scheduled spin cycle   one spin performed
    FORWARD_PROGRESS ------> PROBE_MOVE  episode continues (Sec. IV-B4)
    MOVE/PROBE_MOVE -------> KILL_MOVE   recovery is being cancelled
    initiator state -------> DD/OFF      span closes

Non-initiator FROZEN residencies are traced as their own (much simpler)
spans, so a recorded trace shows *which* routers a recovery froze and for
how long.

Derived latencies (docs/TELEMETRY.md):

* ``detection_latency``  = ``tdd + loop_delay`` — the full countdown plus
  the probe round trip, directly comparable to the paper's Fig. 9/11.
* ``recovery_latency``   = close cycle − probe-send cycle — everything
  from the countdown's expiry to the FSM returning to detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.fsm import INITIATOR_STATES, SpinState

#: Span kinds emitted by the tracer.
SPAN_KINDS = ("spin_episode", "frozen")

#: Outcomes a closed ``spin_episode`` span may report.
OUTCOMES = ("recovered", "killed", "aborted")


@dataclass
class SpinSpan:
    """One reconstructed SPIN episode (or FROZEN residency) at one router.

    Attributes:
        kind: ``"spin_episode"`` (initiator) or ``"frozen"``.
        router: Router id the span belongs to.
        vnet: Virtual network the recovery is scoped to.
        start_cycle: Probe-send cycle for episodes (``move_cycle -
            loop_delay``); freeze cycle for FROZEN spans.
        move_cycle: Cycle the initiator entered MOVE (probe returned).
        loop_delay: Probe round-trip time in cycles (the theorem's loop
            delay); 0 for FROZEN spans.
        tdd: Detection threshold active during this episode.
        move_returns: Cycles at which move/probe_move round trips
            completed (FSM entered FORWARD_PROGRESS).
        spin_cycles: Cycles at which this episode's synchronized spins
            executed.
        kill_cycle: First cycle the initiator entered KILL_MOVE, if any.
        end_cycle: Cycle the span closed (None while open).
        outcome: ``"recovered"`` (>= 1 spin), ``"killed"`` (cancelled via
            kill_move before any spin), ``"aborted"`` (any other reset),
            or None while open.
        source: Initiating router id (FROZEN spans only).
    """

    kind: str
    router: int
    vnet: int = 0
    start_cycle: int = 0
    move_cycle: Optional[int] = None
    loop_delay: int = 0
    tdd: int = 0
    move_returns: List[int] = field(default_factory=list)
    spin_cycles: List[int] = field(default_factory=list)
    kill_cycle: Optional[int] = None
    end_cycle: Optional[int] = None
    outcome: Optional[str] = None
    source: Optional[int] = None

    @property
    def complete(self) -> bool:
        """Whether the span has closed."""
        return self.end_cycle is not None

    @property
    def detection_latency(self) -> int:
        """tDD countdown plus probe round trip (episodes only)."""
        return self.tdd + self.loop_delay

    @property
    def recovery_latency(self) -> Optional[int]:
        """Probe-send cycle through span close; None while open."""
        if self.end_cycle is None:
            return None
        return self.end_cycle - self.start_cycle

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe record (the ``span`` JSONL event payload)."""
        record: Dict[str, object] = {
            "kind": self.kind,
            "router": self.router,
            "vnet": self.vnet,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "outcome": self.outcome,
        }
        if self.kind == "spin_episode":
            record.update({
                "move_cycle": self.move_cycle,
                "loop_delay": self.loop_delay,
                "tdd": self.tdd,
                "detection_latency": self.detection_latency,
                "recovery_latency": self.recovery_latency,
                "move_returns": list(self.move_returns),
                "spin_cycles": list(self.spin_cycles),
                "kill_cycle": self.kill_cycle,
            })
        else:
            record["source"] = self.source
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpinSpan":
        """Rebuild a span from :meth:`to_dict` output."""
        span = cls(kind=data["kind"], router=data["router"],
                   vnet=data.get("vnet", 0),
                   start_cycle=data.get("start_cycle", 0))
        span.end_cycle = data.get("end_cycle")
        span.outcome = data.get("outcome")
        span.source = data.get("source")
        span.move_cycle = data.get("move_cycle")
        span.loop_delay = data.get("loop_delay", 0) or 0
        span.tdd = data.get("tdd", 0) or 0
        span.move_returns = list(data.get("move_returns", ()))
        span.spin_cycles = list(data.get("spin_cycles", ()))
        span.kill_cycle = data.get("kill_cycle")
        return span


class SpanTracer:
    """Reconstructs SPIN spans from settled per-cycle FSM states.

    Drive it with :meth:`observe` once per cycle (the telemetry observer
    does); closed spans accumulate on :attr:`spans`, still-open ones on
    :attr:`open_spans`.  ``on_span_close`` (if set) fires for every closed
    span — the observer uses it to stream spans into its histograms
    and the event log without a second pass.
    """

    def __init__(self, spin_framework) -> None:
        self.framework = spin_framework
        self.spans: List[SpinSpan] = []
        self.on_span_close = None
        self._states: Optional[List[SpinState]] = None
        #: router id -> open initiator span.
        self._episodes: Dict[int, SpinSpan] = {}
        #: router id -> open FROZEN span.
        self._frozen: Dict[int, SpinSpan] = {}
        #: router id -> spin cycle scheduled when FORWARD_PROGRESS entered.
        self._fp_spin_cycle: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> List[SpinSpan]:
        """Spans still in progress (deterministic router order)."""
        spans = list(self._episodes.values()) + list(self._frozen.values())
        spans.sort(key=lambda span: (span.start_cycle, span.router))
        return spans

    def observe(self, cycle: int) -> None:
        """Fold this cycle's settled FSM states into the span model."""
        controllers = self.framework.controllers
        states = [controller.state for controller in controllers]
        previous = self._states
        self._states = states
        if previous is None:
            return
        for router_id, (before, after) in enumerate(zip(previous, states)):
            if after is before:
                continue
            self._transition(router_id, before, after, cycle,
                             controllers[router_id])

    def finish(self, cycle: int) -> None:
        """Close every still-open span at end of run (outcome stays None)."""
        for span in self.open_spans:
            span.end_cycle = cycle
            self._close(span)
        self._episodes.clear()
        self._frozen.clear()

    # ------------------------------------------------------------------
    # Transition handling
    # ------------------------------------------------------------------
    def _transition(self, router_id: int, before: SpinState,
                    after: SpinState, cycle: int, controller) -> None:
        # --- initiator episode machine ---------------------------------
        if after is SpinState.MOVE and before not in INITIATOR_STATES:
            self._open_episode(router_id, cycle, controller)
        span = self._episodes.get(router_id)
        if span is not None:
            if after is SpinState.FORWARD_PROGRESS:
                span.move_returns.append(cycle)
                self._fp_spin_cycle[router_id] = (
                    controller.spin_cycle
                    if controller.spin_cycle is not None else -1)
            if before is SpinState.FORWARD_PROGRESS:
                # The executor performs the spin (and transitions the FSM)
                # exactly at the scheduled spin cycle; any later exit is
                # the freeze-timeout escape, not a spin.
                if cycle == self._fp_spin_cycle.pop(router_id, -1):
                    span.spin_cycles.append(cycle)
            if after is SpinState.KILL_MOVE and span.kill_cycle is None:
                span.kill_cycle = cycle
            if (before in INITIATOR_STATES
                    and after not in INITIATOR_STATES):
                self._close_episode(router_id, span, cycle)
        # --- non-initiator FROZEN residencies ---------------------------
        if after is SpinState.FROZEN and before is not SpinState.FROZEN:
            self._frozen[router_id] = SpinSpan(
                kind="frozen", router=router_id,
                vnet=controller.probe_vnet, start_cycle=cycle,
                source=controller.latched_source)
        elif before is SpinState.FROZEN and after is not SpinState.FROZEN:
            frozen = self._frozen.pop(router_id, None)
            if frozen is not None:
                frozen.end_cycle = cycle
                frozen.outcome = "released"
                self._close(frozen)

    def _open_episode(self, router_id: int, cycle: int, controller) -> None:
        # A previous open episode interrupted mid-flight closes as aborted.
        stale = self._episodes.pop(router_id, None)
        if stale is not None:
            stale.end_cycle = cycle
            stale.outcome = "aborted"
            self._close(stale)
        loop_delay = controller.loop_delay
        self._episodes[router_id] = SpinSpan(
            kind="spin_episode", router=router_id,
            vnet=controller.probe_vnet,
            start_cycle=cycle - loop_delay,
            move_cycle=cycle, loop_delay=loop_delay,
            tdd=self.framework.params.tdd)

    def _close_episode(self, router_id: int, span: SpinSpan,
                       cycle: int) -> None:
        self._episodes.pop(router_id, None)
        self._fp_spin_cycle.pop(router_id, None)
        span.end_cycle = cycle
        if span.spin_cycles:
            span.outcome = "recovered"
        elif span.kill_cycle is not None:
            span.outcome = "killed"
        else:
            span.outcome = "aborted"
        self._close(span)

    def _close(self, span: SpinSpan) -> None:
        self.spans.append(span)
        if self.on_span_close is not None:
            self.on_span_close(span)
