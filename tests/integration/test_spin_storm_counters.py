"""The SPIN event counters of a probe storm are pinned.

CI's storm point — a 1-VC 8x8 mesh far past saturation — sends over a
thousand probes, nearly all of which die in flight by contention, length,
idle VCs or ejection, and still completes a few spins.  Every SM it
sends, forwards, drops or retries shows up in the counters below, so a
change to the SM path (message copies, contention resolution, delivery
order, detection ticks) that is meant to be behaviour-preserving must
leave every one of them as it is.  The engine is the one the environment
selects (``REPRO_ENGINE``): tier-1 runs this file under both.

The ``fast`` engine's counted work on the point (router-cycles run and
skipped, controller ticks, SM sends...) is pinned too: it is the baseline
any change to the allocate phase or the control loop must match, or beat
on purpose.
"""

from dataclasses import replace

from repro.config import SimulationConfig
from repro.harness.runner import ExperimentSpec
from repro.sim.profile import PhaseProfiler

#: The point's SPIN counters, recorded before the SM path was rebuilt
#: around slotted SMs and per-router arrival buckets.
STORM_COUNTERS = {
    "kill_move_retries": 12,
    "kill_moves_dropped_busy": 14,
    "kill_moves_dropped_contention": 1,
    "kill_moves_sent": 22,
    "moves_dropped_busy": 2,
    "moves_dropped_no_dependency": 1,
    "moves_dropped_priority": 5,
    "moves_returned": 2,
    "moves_sent": 10,
    "probe_moves_dropped_no_dependency": 2,
    "probe_moves_sent": 2,
    "probes_dropped_contention": 894,
    "probes_dropped_ejecting": 77,
    "probes_dropped_idle_vc": 95,
    "probes_dropped_length": 41,
    "probes_returned": 10,
    "probes_sent": 1148,
    "sm_retries": 12,
    "spin_hops": 26,
    "spins": 2,
    "spins_aborted": 8,
    "spins_aborted_undersized": 8,
    "watchdog_fires": 24,
    "watchdog_resets": 2,
}

#: Datapath counters (the rest of the point's events).
DATAPATH_COUNTERS = {"flit_hops": 4741}

#: The ``fast`` engine's profiler counters on the point (the report's
#: ``counters``, as ``repro profile --output`` writes them).
FAST_WORK_COUNTS = {
    "alloc_cycles_run": 416,
    "alloc_cycles_skipped": 384,
    "controller_ticks": 4865,
    "controller_ticks_skipped": 46335,
    "nic_attempts_skipped": 43866,
    "router_cycles_run": 5414,
    "router_cycles_skipped": 45786,
    "routers_woken_by_control": 184,
    "sm_arrivals": 21040,
    "sm_dropped_contention": 895,
    "sm_sends": 21966,
}

#: CI's storm point: a 1-VC 8x8 mesh far past saturation.
STORM_SPEC = ExperimentSpec(
    design="mesh:minadaptive-spin-1vc", pattern="uniform",
    injection_rate=0.30, mesh_side=8, tdd=32,
    sim=SimulationConfig(warmup_cycles=150, measure_cycles=500,
                         drain_cycles=150))


def test_storm_point_counters_are_unchanged():
    _, point = STORM_SPEC.run()
    assert dict(point.events) == {**STORM_COUNTERS, **DATAPATH_COUNTERS}


def test_storm_point_work_counts_are_unchanged():
    profiler = PhaseProfiler()
    _, point = replace(STORM_SPEC, engine="fast").run(profiler=profiler)
    report = profiler.report("fast", point.cycles)
    assert report["counters"] == FAST_WORK_COUNTS
    assert dict(point.events) == {**STORM_COUNTERS, **DATAPATH_COUNTERS}
