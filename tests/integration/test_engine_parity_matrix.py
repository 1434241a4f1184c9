"""Engine parity matrix: every registered design, both engines, bit for bit.

Across *all* registered designs the ``fast`` engine produces
:class:`SweepPoint` results identical to the reference engine, field for
field, at a low and a congested load with different seeds.  For the
whitelisted designs that is the SoA datapath plus scheduled controller
ticks against the object datapath ticking everything; for the SPIN designs
outside the routing whitelist the datapath is the same object path on both
sides and the matrix is a skip-on vs skip-off differential of the control
loop (``SpinFramework.scheduled``) — the second test makes sure skipping
really is on there; for the rest both sides run the same code.

Kept deliberately tiny (4x4 fabrics, short windows) so the 21-design
matrix stays affordable in tier-1; the full-size sweeps run in the
``engine-parity`` CI job and the benchmark's identity gates.
"""

from dataclasses import replace

import pytest

from repro.config import SimulationConfig
from repro.harness.configs import ALL_DESIGNS
from repro.harness.runner import ExperimentSpec
from repro.sim.profile import PhaseProfiler

TINY = SimulationConfig(warmup_cycles=50, measure_cycles=200,
                        drain_cycles=150, deadlock_abort_cycles=300)

#: (injection rate, traffic seed): one quiet point, one congested point
#: under a different seed — congestion exercises SPIN recovery on the
#: aggressive designs and the wait/select randomness on the adaptive ones.
LOADS = [(0.02, 1), (0.10, 7)]


@pytest.mark.parametrize("design", sorted(ALL_DESIGNS))
def test_design_is_engine_parity_clean(design):
    for rate, seed in LOADS:
        spec = ExperimentSpec(design=design, pattern="uniform",
                              injection_rate=rate, seed=seed,
                              mesh_side=4, tdd=32, sim=TINY)
        _, reference = replace(spec, engine="reference").run()
        _, fast = replace(spec, engine="fast").run()
        assert fast.to_dict() == reference.to_dict(), (
            f"{design} rate={rate} seed={seed}: fast engine diverged "
            f"from reference")


#: SPIN designs whose routing is outside the SoA whitelist: object datapath
#: under either engine, controller scheduling under ``fast`` only.
SCHEDULED_ON_THE_OBJECT_PATH = (
    "mesh:favors-min-spin-1vc", "mesh:favors-nmin-spin-1vc",
    "dfly:ugal-spin-3vc", "dfly:minimal-spin-1vc", "dfly:minimal-spin-3vc",
    "dfly:favors-nmin-spin-1vc",
)


@pytest.mark.parametrize("design", SCHEDULED_ON_THE_OBJECT_PATH)
def test_fast_schedules_controllers_outside_the_whitelist(design):
    assert design in ALL_DESIGNS
    rate, seed = LOADS[1]
    spec = ExperimentSpec(design=design, pattern="uniform",
                          injection_rate=rate, seed=seed, mesh_side=4,
                          tdd=32, sim=TINY, engine="fast")
    profiler = PhaseProfiler()
    network, point = spec.run(profiler=profiler)
    assert network.spin.scheduled
    # The object datapath ran: no SoA counters (benchmarks/perf reads an
    # empty ``counters`` as exactly that); the loop's own are in the report.
    assert profiler.counters == {}
    counters = profiler.report("fast", point.cycles)["counters"]
    assert counters["controller_ticks_skipped"] > 0
    # Every cycle the loop ran ticked or skipped every controller; the
    # drained tail is fast-forwarded on this path too.
    ran = point.cycles - counters.get("cycles_fast_forwarded", 0)
    assert (counters["controller_ticks"] + counters["controller_ticks_skipped"]
            == ran * len(network.routers))
