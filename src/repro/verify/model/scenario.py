"""Counterexample -> replayable golden scenario pipeline.

A model-checker counterexample lives in the abstract control plane; to be
trusted (and to stay caught) it must also fail *concretely*.  This module
closes that loop:

1. :func:`scenario_from_counterexample` wraps a checker counterexample,
   its design, and the mutation that produced it into a
   :class:`CounterexampleScenario`;
2. ``scenario.replay()`` rebuilds the design's planted-loop network,
   applies a scripted **intervention** that inflicts the same protocol
   mistake on the real control plane, and runs the reference simulator
   under the invariant oracle in record mode;
3. the round-trip tests (tests/property/test_prop_model_roundtrip.py)
   assert that the replay trips the same invariant *family* the abstract
   property maps onto (:data:`~repro.verify.model.properties
   .PROPERTY_TO_INVARIANT`) — and that the unmutated replay is clean;
4. ``scenario.fixture()`` renders the whole story (abstract trace,
   expected invariant, replay parameters) as a JSON-serializable payload,
   written under tests/fixtures/model/ so a regression can be re-examined
   without re-running the checker.

Interventions mirror the model mutations, not merely *some* bug:

* ``freeze_ignores_state_guard`` froze a router the guard should have
  skipped.  Concretely we clobber a FROZEN controller's state without the
  thaw bookkeeping — an FSM step outside the per-cycle legality catalog
  (``fsm_transition``).
* ``progress_skips_home_guards`` let an initiator commit without its home
  checks, double-spending the freeze token.  Concretely we stamp a second
  VC with an existing token's (source, spin cycle, path index)
  (``freeze_token_uniqueness``).
* ``kill_return_declares_progress`` resolved the deadlock flag on a kill
  round.  Concretely the spin "completes" — controllers are told progress
  happened — but no packet moves, so the planted deadlock outlives the
  theory's persistence bound (``deadlock_persistence``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.fsm import SpinState
from repro.verify.model.checker import CheckResult, Counterexample
from repro.verify.model.designs import DESIGNS, Design
from repro.verify.model.state import GlobalState

#: Fixture payload format tag (bump on incompatible change).
FIXTURE_FORMAT = "repro.model-cex/v1"


# ----------------------------------------------------------------------
# Scripted interventions (one per model mutation)
# ----------------------------------------------------------------------
class _Intervention:
    """A cycle-loop component that inflicts one protocol mistake.

    Registered *after* the network so its ``phase_control`` runs once the
    real control plane has settled; the oracle (an observer) then samples
    the corrupted state at the end of the same cycle.
    """

    def __init__(self, network) -> None:
        self.network = network
        self.fired_at: Optional[int] = None


class _ClobberFrozenState(_Intervention):
    """freeze_ignores_state_guard: a freeze whose bookkeeping is skipped.

    The planted loops are symmetric, so every router detects in the same
    cycle and nobody is left in DD to be frozen by a rival's move — the
    exact scene the model reaches by interleaving.  The intervention
    scripts that skew concretely: it stalls router 0's detection countdown
    until a rival initiator's move freezes it (FSM FROZEN), then enacts
    the guard-skipping freeze's damage — the state is clobbered to OFF
    with the thaw bookkeeping skipped.  FROZEN -> OFF is provably
    impossible per cycle (:data:`repro.verify.invariants
    .ILLEGAL_TRANSITIONS`), so the oracle reports ``fsm_transition``.
    """

    def __init__(self, network) -> None:
        super().__init__(network)
        self._held: Dict[int, SpinState] = {}

    def phase_control(self, cycle: int) -> None:
        spin = self.network.spin
        if spin is None or self.fired_at is not None:
            return
        for controller in spin.controllers:
            before = self._held.get(controller.router.id)
            if (before is SpinState.FROZEN
                    and controller.state is SpinState.FROZEN):
                controller.state = SpinState.OFF
                controller.pointer = None
                controller.deadline = None
                self.fired_at = cycle
                break
        else:
            victim = spin.controllers[0]
            if victim.state is SpinState.DD and victim.deadline is not None:
                # Detection skew: hold the victim one countdown-expiry
                # short so a rival initiator's move finds it freezable.
                victim.deadline = max(victim.deadline, cycle + 2)
        self._held = {c.router.id: c.state for c in spin.controllers}


class _DoubleSpendFreezeToken(_Intervention):
    """progress_skips_home_guards: the freeze token spent twice.

    Once any VC is frozen, stamps a second occupied VC with the same
    (source, spin cycle) token at the same path index — two claims to one
    slot of the synchronized spin.
    """

    def phase_control(self, cycle: int) -> None:
        if self.fired_at is not None:
            return
        frozen = None
        spare = None
        for router in self.network.routers:
            for _inport, vcs in router.all_inports():
                for vc in vcs:
                    if vc.frozen and vc.freeze_source >= 0:
                        frozen = frozen or vc
                    elif vc.packet is not None and not vc.frozen:
                        spare = spare or vc
        if frozen is None or spare is None:
            return
        spare.freeze(outport=frozen.freeze_outport,
                     source=frozen.freeze_source,
                     spin_cycle=frozen.freeze_spin_cycle,
                     path_index=frozen.freeze_path_index)
        self.fired_at = cycle


class _PhantomSpin(_Intervention):
    """kill_return_declares_progress: progress declared, none made.

    Replaces the executor's rotation with unfreeze-only: every spin
    "completes" (controllers run ``on_spin_complete`` and reset to
    detection believing the loop advanced) but no packet moves, so the
    planted deadlock persists through endless confident recoveries until
    it outlives :func:`repro.deadlock.waitgraph.spin_persistence_bound`.
    """

    def __init__(self, network) -> None:
        super().__init__(network)
        executor = network.spin.executor
        tracker = self

        def unfreeze_only(moves, now):
            if tracker.fired_at is None:
                tracker.fired_at = now
            for vc, _outport, _target in moves:
                vc.clear_freeze()

        executor._rotate = unfreeze_only

    def phase_control(self, cycle: int) -> None:  # pragma: no cover
        pass  # the damage is done at executor level


INTERVENTIONS = {
    "freeze_ignores_state_guard": _ClobberFrozenState,
    "progress_skips_home_guards": _DoubleSpendFreezeToken,
    "kill_return_declares_progress": _PhantomSpin,
}


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayOutcome:
    """What one concrete replay observed."""

    families: Tuple[str, ...]          # invariant families violated, sorted
    violations: Tuple[str, ...]        # rendered violation messages
    cycles_run: int
    intervention_fired_at: Optional[int]
    delivered: int

    def tripped(self, invariant: str) -> bool:
        return invariant in self.families


def _replay(design: Design, mutation: Optional[str], cycles: int,
            engine: Optional[str] = None) -> ReplayOutcome:
    from repro.sim import create_engine
    from repro.verify.oracle import InvariantOracle, OracleConfig

    network = design.build_network()
    simulator = create_engine(engine)
    simulator.register(network)
    intervention = None
    if mutation is not None:
        intervention = INTERVENTIONS[mutation](network)
        simulator.register(intervention)
    oracle = InvariantOracle(network, OracleConfig(mode="record"))
    oracle.attach(simulator)
    simulator.run(cycles)
    families = sorted({v.context["invariant"] for v in oracle.violations
                       if "invariant" in v.context})
    return ReplayOutcome(
        families=tuple(families),
        violations=tuple(str(v) for v in oracle.violations),
        cycles_run=cycles,
        intervention_fired_at=(intervention.fired_at
                               if intervention is not None else None),
        delivered=network.stats.packets_delivered,
    )


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CounterexampleScenario:
    """One checker counterexample bound to its concrete replay."""

    name: str
    design: Design
    mutation: str
    counterexample: Counterexample
    model_summary: Dict[str, object]

    @property
    def expected_invariant(self) -> str:
        """The invariant family the replay must trip."""
        return self.counterexample.violation.invariant

    def replay_cycles(self) -> int:
        """Enough cycles for the slowest intervention to be judged: the
        persistence bound plus margin for the oracle's check cadence."""
        return design_replay_cycles(self.design)

    def replay(self, engine: Optional[str] = None,
               cycles: Optional[int] = None) -> ReplayOutcome:
        """Rebuild the fabric, inflict the mistake, record violations."""
        return _replay(self.design, self.mutation,
                       cycles or self.replay_cycles(), engine)

    def replay_clean(self, engine: Optional[str] = None,
                     cycles: Optional[int] = None) -> ReplayOutcome:
        """The control replay: same fabric, no intervention."""
        return _replay(self.design, None,
                       cycles or self.replay_cycles(), engine)

    def fixture(self) -> Dict[str, object]:
        """JSON-serializable record of the abstract trace and replay."""
        cex = self.counterexample
        return {
            "format": FIXTURE_FORMAT,
            "name": self.name,
            "design": self.design.name,
            "mutation": self.mutation,
            "property": cex.violation.prop,
            "detail": cex.violation.detail,
            "expected_invariant": self.expected_invariant,
            "depth": cex.depth,
            "trace": [
                {"action": action, "state": _state_record(state)}
                for action, state in cex.trace
            ],
            "initial": _state_record(cex.initial),
            "replay": {
                "engine": "reference",
                "cycles": self.replay_cycles(),
                "loop_size": self.design.loop_size,
                "tdd": self.design.tdd,
            },
            "model": self.model_summary,
        }

    def write(self, out_dir: Path) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{self.name}.json"
        path.write_text(json.dumps(self.fixture(), indent=2,
                                   sort_keys=True) + "\n")
        return path


def design_replay_cycles(design: Design) -> int:
    """Cycles a replay runs: past the persistence bound with margin for
    the oracle's periodic deadlock census."""
    return design.persistence_bound() + 4 * design.tdd + 256


def _state_record(state: GlobalState) -> Dict[str, object]:
    return {
        "routers": [
            {"fsm": r.fsm.name, "frozen_by": r.frozen_by,
             "latched": r.latched, "probes_left": r.probes_left}
            for r in state.routers
        ],
        "messages": [
            {"kind": m.kind, "origin": m.origin, "at": m.at, "hops": m.hops}
            for m in state.messages
        ],
        "drops_left": state.drops_left,
        "resolved": state.resolved,
    }


def scenario_from_counterexample(result: CheckResult, design: Design,
                                 mutation: str) -> CounterexampleScenario:
    """Bind a violating check result to its concrete replay scenario."""
    if result.counterexample is None:
        raise ValueError("check result has no counterexample to convert")
    summary = result.summary()
    summary.pop("counterexample", None)  # the trace is stored structured
    return CounterexampleScenario(
        name=f"cex_{design.name}_{mutation}",
        design=design,
        mutation=mutation,
        counterexample=result.counterexample,
        model_summary=summary,
    )


def load_fixture(path: Path) -> Dict[str, object]:
    """Read and sanity-check a counterexample fixture payload."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != FIXTURE_FORMAT:
        raise ValueError(f"not a {FIXTURE_FORMAT} fixture: {path}")
    return payload


def regenerate(out_dir: Path, designs: Optional[List[str]] = None,
               max_states: int = 200_000) -> List[Path]:
    """Re-derive every mutation counterexample fixture.

    Runs the checker once per (design, mutation) in *race* mode — all
    three mutations need rival interleavings to manifest (an initiator
    being frozen, two recoveries double-spending a token, a busy-kill
    declaring progress), so the pinned single-initiator mode is provably
    blind to them and race mode is the interesting exercise.  BFS stops
    at the first (minimal) violation, so each run explores only a few
    hundred states.  ``python -m repro.verify.model.scenario``.
    """
    from repro.verify.model.checker import ModelChecker

    written: List[Path] = []
    for name in designs or ("ring3", "mesh2x2"):
        design = DESIGNS[name]
        for mutation in sorted(INTERVENTIONS):
            config = design.model_config(mutation=mutation)
            result = ModelChecker(
                config, weights=design.weights(),
                persistence_bound=design.persistence_bound(),
            ).run(max_states=max_states)
            if result.counterexample is None:
                raise AssertionError(
                    f"mutation {mutation} produced no counterexample on "
                    f"{name} — the checker lost a detection")
            scenario = scenario_from_counterexample(result, design, mutation)
            written.append(scenario.write(Path(out_dir)))
    return written


if __name__ == "__main__":  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(
        description="regenerate model counterexample fixtures")
    parser.add_argument("--out", default="tests/fixtures/model")
    args = parser.parse_args()
    for path in regenerate(Path(args.out)):
        print(path)
