"""Unit tests for the SPIN control-plane model checker (repro.verify.model)."""

import json

import pytest

from repro.verify.model import (
    MUTATIONS,
    PROPERTY_TO_INVARIANT,
    ModelChecker,
    ModelConfig,
    canonical,
    initial_state,
    project,
)
from repro.verify.model.designs import DESIGNS


def check(design_name, **config_overrides):
    design = DESIGNS[design_name]
    config = design.model_config(**config_overrides)
    return ModelChecker(
        config, weights=design.weights(),
        persistence_bound=design.persistence_bound(),
    ).run(max_states=50_000)


class TestStateSpace:
    def test_canonicalization_collapses_rotations(self):
        state = initial_state(4, probe_budget=1, drop_budget=0,
                              initiators=None)
        for shift in range(4):
            assert canonical(state.rotated(shift)) == canonical(state)

    def test_projection_shape(self):
        state = initial_state(3, probe_budget=1, drop_budget=0,
                              initiators=1)
        shape = project(state)
        assert len(shape) == 3
        for fsm, frozen, latch in shape:
            assert isinstance(fsm, str)
            assert isinstance(frozen, bool)
            assert latch in ("-", "self", "other")

    def test_max_states_cap_reports_incomplete(self):
        result = check("ring3", initiators=None)
        capped = ModelChecker(
            DESIGNS["ring3"].model_config(initiators=None),
            weights=DESIGNS["ring3"].weights(),
            persistence_bound=DESIGNS["ring3"].persistence_bound(),
        ).run(max_states=min(10, result.visited - 1))
        assert result.complete
        assert not capped.complete


class TestSingleInitiator:
    """The pinned lossless single-initiator mode: the bounds prover."""

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_exhausts_and_proves_bounds(self, name):
        result = check(name, initiators=1)
        assert result.complete and result.ok
        live = result.liveness
        assert live is not None
        assert live.acyclic and live.live
        assert live.resolved_terminals == live.terminal_states == 1
        # The exhaustively computed worst-case recovery sits far inside
        # the theory's persistence bound — the paper's liveness claim.
        assert live.bounds_proved is True
        assert live.detection_cycles <= live.recovery_cycles
        assert live.recovery_cycles <= live.persistence_bound

    def test_state_count_grows_with_loop(self):
        small = check("ring3", initiators=1)
        large = check("ring4", initiators=1)
        assert small.visited < large.visited


class TestRaceMode:
    def test_ring3_race_safe_and_live(self):
        result = check("ring3", initiators=None)
        assert result.complete and result.ok
        assert result.counterexample is None
        live = result.liveness
        assert live.live
        assert live.resolved_terminals >= 1
        # Mutual busy-kill standoffs may degrade cleanly, never wedge.
        assert not live.stuck_terminals

    def test_race_explores_rival_interleavings(self):
        single = check("ring3", initiators=1)
        race = check("ring3", initiators=None)
        assert race.visited > 10 * single.visited
        # Rival initiators kill each other's rounds — kill_moves exist
        # only when recoveries race.
        assert "deliver kill_move" in race.action_counts
        assert "deliver kill_move" not in single.action_counts

    def test_drop_budget_enlarges_space(self):
        lossless = check("ring3", initiators=None)
        lossy = check("ring3", initiators=None, drop_budget=1)
        assert lossy.complete and lossy.ok
        assert lossy.visited > lossless.visited


class TestMutations:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_yields_counterexample(self, mutation):
        result = check("ring3", initiators=None, mutation=mutation)
        cex = result.counterexample
        assert cex is not None, f"mutation {mutation} went undetected"
        assert cex.violation.invariant \
            == PROPERTY_TO_INVARIANT[cex.violation.prop]
        # BFS order makes the counterexample minimal: a strictly shorter
        # prefix of the same run is violation-free by construction.
        assert cex.depth == len(cex.trace) > 0
        assert "property" in cex.describe()

    def test_each_mutation_maps_to_distinct_family(self):
        families = {
            check("ring3", initiators=None, mutation=mutation)
            .counterexample.violation.invariant
            for mutation in MUTATIONS
        }
        assert families == {"fsm_transition", "freeze_token_uniqueness",
                            "deadlock_persistence"}


class TestSummary:
    def test_summary_is_json_ready(self):
        result = check("ring3", initiators=1)
        payload = json.loads(json.dumps(result.summary()))
        assert payload["format"] == "repro.model-check/v1"
        assert payload["visited_states"] == result.visited
        assert payload["complete"] is True
        assert payload["liveness"]["bounds_proved"] is True

    def test_summary_carries_counterexample(self):
        result = check("ring3", initiators=None,
                       mutation="freeze_ignores_state_guard")
        payload = result.summary()
        assert payload["ok"] is False
        assert payload["counterexample"]["invariant"] == "fsm_transition"
        assert len(payload["counterexample"]["actions"]) \
            == result.counterexample.depth


class TestCli:
    def test_model_check_clean_run(self, capsys, tmp_path):
        from repro.cli import main

        artifact = tmp_path / "summary.json"
        code = main(["model-check", "--design", "mesh2x2",
                     "--scheme", "spin", "--quiet",
                     "--output", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "visited states" in out
        assert "bounds proved" in out and "YES" in out
        payload = json.loads(artifact.read_text())
        assert payload["format"] == "repro.model-check/v1"
        assert payload["design"] == "mesh2x2"
        assert payload["complete"] is True
        assert payload["telemetry"]["progress_reports"] >= 1

    def test_peak_frontier_is_the_peak_of_every_report(self, monkeypatch,
                                                       tmp_path):
        from repro.cli import main
        from repro.verify.model import ModelChecker

        real_run = ModelChecker.run

        def run(self, *args, progress=None, **kwargs):
            # A long exploration whose widest frontier comes first.
            for tick in range(5000):
                progress(0, 6818 if tick == 0 else 1, 0)
            return real_run(self, *args, progress=progress, **kwargs)

        monkeypatch.setattr(ModelChecker, "run", run)
        artifact = tmp_path / "summary.json"
        assert main(["model-check", "--design", "ring3", "--quiet",
                     "--output", str(artifact)]) == 0
        telemetry = json.loads(artifact.read_text())["telemetry"]
        assert telemetry["progress_reports"] > 5000
        assert telemetry["peak_frontier"] == 6818

    def test_model_check_mutation_fails(self, capsys):
        from repro.cli import main

        code = main(["model-check", "--design", "ring3", "--race",
                     "--quiet", "--mutation",
                     "freeze_ignores_state_guard"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fsm_transition" in out

    def test_model_check_rejects_unknown_design(self):
        from repro.cli import main
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["model-check", "--design", "mesh9x9"])
