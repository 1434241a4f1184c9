"""Phase profiler: zero perturbation, phase coverage, fast-core counters.

The contract (docs/OBSERVE.md): attaching a
:class:`~repro.sim.profile.PhaseProfiler` never changes the simulated
point — the schedule is only wrapped at build time when a profiler is
attached, and the fast-core skip counters hide behind ``is not None``
guards on already-expensive paths.
"""

import json

import pytest

from repro.config import SimulationConfig
from repro.harness.runner import ExperimentSpec
from repro.sim import PROFILE_ENV, PROFILE_SCHEMA, PhaseProfiler
from repro.sim.profile import (
    render_report,
    summary_line,
    write_report,
)

TINY = SimulationConfig(warmup_cycles=50, measure_cycles=200,
                        drain_cycles=150, deadlock_abort_cycles=300)

#: A design on the fast core's whitelist (stock minimal-adaptive routing).
FAST_OK_DESIGN = "mesh:minadaptive-spin-1vc"


def tiny_spec(engine="", design=FAST_OK_DESIGN, rate=0.1):
    return ExperimentSpec(design=design, pattern="uniform",
                          injection_rate=rate, mesh_side=4, sim=TINY,
                          engine=engine)


PHASES = {"deliver", "control", "inject", "allocate", "collect"}


class TestPhaseCoverage:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_all_phases_timed_every_cycle(self, engine):
        profiler = PhaseProfiler()
        _, point = tiny_spec(engine).run(profiler=profiler)
        assert set(profiler.phase_seconds) == PHASES
        # Fast-forwarded quiescent cycles never enter the phase loop, so
        # the fast engine legitimately times fewer calls than cycles.
        expected = point.cycles - profiler.counters.get(
            "cycles_fast_forwarded", 0)
        for phase in PHASES:
            assert profiler.phase_calls[phase] == expected
            assert profiler.phase_seconds[phase] >= 0.0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_report_shape_and_shares(self, engine):
        profiler = PhaseProfiler()
        _, point = tiny_spec(engine).run(profiler=profiler)
        report = profiler.report(engine, point.cycles, wall_seconds=1.0)
        assert report["schema"] == PROFILE_SCHEMA
        assert report["engine"] == engine
        assert report["cycles"] == point.cycles
        assert set(report["phases"]) == PHASES
        shares = sum(entry["share"] for entry in report["phases"].values())
        assert shares == pytest.approx(1.0, abs=0.01)

    def test_render_and_summary_are_printable(self):
        profiler = PhaseProfiler()
        _, point = tiny_spec("fast").run(profiler=profiler)
        report = profiler.report("fast", point.cycles)
        text = render_report(report)
        assert "allocate" in text and "share" in text
        line = summary_line(report)
        assert line.startswith("[profile]")
        assert "engine=fast" in line


class TestNoPerturbation:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_profiled_point_identical(self, engine):
        _, bare = tiny_spec(engine).run()
        _, profiled = tiny_spec(engine).run(profiler=PhaseProfiler())
        assert bare == profiled

    def test_engines_agree_under_profiling(self):
        _, reference = tiny_spec("reference").run(profiler=PhaseProfiler())
        _, fast = tiny_spec("fast").run(profiler=PhaseProfiler())
        assert reference == fast


class TestFastCoreCounters:
    def test_skip_counters_recorded(self, monkeypatch):
        # An env-attached oracle observer disables quiescence fast-forward
        # (by design); this test is about the skip counters, so pin the
        # observer-free regime.
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        profiler = PhaseProfiler()
        _, point = tiny_spec("fast").run(profiler=profiler)
        counters = profiler.counters
        # The run covers both regimes: busy cycles that tick routers and
        # quiescent stretches the event core skips or fast-forwards.
        assert counters["router_cycles_run"] > 0
        assert counters["router_cycles_skipped"] > 0
        assert counters["cycles_fast_forwarded"] > 0
        assert counters["controller_ticks_skipped"] > 0
        run = counters.get("alloc_cycles_run", 0)
        skipped = counters.get("alloc_cycles_skipped", 0)
        assert run + skipped + counters["cycles_fast_forwarded"] \
            == point.cycles

    def test_reference_engine_has_no_fast_counters(self):
        profiler = PhaseProfiler()
        _, point = tiny_spec("reference").run(profiler=profiler)
        assert profiler.counters == {}
        report = profiler.report("reference", point.cycles)
        assert report["counters"] == {}
        assert "parts" not in report["phases"]["control"]

    def test_control_is_split_into_parts(self):
        profiler = PhaseProfiler()
        _, point = tiny_spec("fast").run(profiler=profiler)
        report = profiler.report("fast", point.cycles)
        control = report["phases"]["control"]
        assert set(control["parts"]) == {"executor", "sm_delivery", "tick",
                                         "outbox"}
        assert sum(control["parts"].values()) <= control["seconds"]
        # The parts are not phases: shares still add up over the five.
        assert set(report["phases"]) == PHASES
        assert "  .sm_delivery" in render_report(report)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_inject_is_split_by_component(self, engine):
        profiler = PhaseProfiler()
        _, point = tiny_spec(engine).run(profiler=profiler)
        report = profiler.report(engine, point.cycles)
        inject = report["phases"]["inject"]
        # Traffic generation, then NIC -> VC admission (the network's
        # hook, or the fast core's that stands in for it).
        assert set(inject["parts"]) == {"traffic", "network"}
        assert sum(inject["parts"].values()) == pytest.approx(
            inject["seconds"], abs=1e-5)
        assert "parts" not in report["phases"]["allocate"]
        assert "  .traffic" in render_report(report)

    def test_lapped_component_gets_no_part_of_its_own(self):
        # Faults put the injector beside the network in ``control``; the
        # fast engine still hands the framework the profiler, whose laps
        # split the network's share.  Counting that share again as a
        # ``network`` part would make the parts add up to twice the phase.
        spec = ExperimentSpec(design=FAST_OK_DESIGN, pattern="uniform",
                              injection_rate=0.1, mesh_side=4, sim=TINY,
                              engine="fast", faults="sm_drop:p=0.05",
                              fault_seed=3)
        profiler = PhaseProfiler()
        _, point = spec.run(profiler=profiler)
        control = profiler.report("fast", point.cycles)["phases"]["control"]
        assert {"FaultInjector", "executor", "sm_delivery", "tick",
                "outbox"} <= set(control["parts"])
        assert "network" not in control["parts"]
        assert sum(control["parts"].values()) == pytest.approx(
            control["seconds"], rel=0.2)

    def test_control_counters_merge_into_the_report(self):
        profiler = PhaseProfiler()
        profiler.count("router_cycles_run", 3)
        profiler.count_control("controller_ticks", 2)
        profiler.count_control("controller_ticks", 5)
        assert profiler.counters == {"router_cycles_run": 3}
        assert profiler.report("fast", 1)["counters"] == {
            "controller_ticks": 7, "router_cycles_run": 3}

    def test_counters_in_report(self):
        profiler = PhaseProfiler()
        _, point = tiny_spec("fast").run(profiler=profiler)
        report = profiler.report("fast", point.cycles)
        assert report["counters"] == dict(profiler.counters)


class TestEnvActivation:
    def test_env_profiler_emits_summary_to_stderr(self, monkeypatch,
                                                  capsys):
        monkeypatch.setenv(PROFILE_ENV, "1")
        _, point = tiny_spec("reference").run()
        err = capsys.readouterr().err
        assert "[profile]" in err
        assert "engine=reference" in err

    def test_env_profiler_does_not_perturb(self, monkeypatch):
        _, bare = tiny_spec("reference").run()
        monkeypatch.setenv(PROFILE_ENV, "1")
        _, profiled = tiny_spec("reference").run()
        assert bare == profiled


class TestWriteReport:
    def test_write_report_roundtrip(self, tmp_path):
        profiler = PhaseProfiler()
        _, point = tiny_spec("fast").run(profiler=profiler)
        report = profiler.report("fast", point.cycles)
        path = tmp_path / "profile.json"
        write_report(path, report)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(report))
