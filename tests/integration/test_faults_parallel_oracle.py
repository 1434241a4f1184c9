"""Fault injection x parallel sweep x invariant oracle, all at once.

Satellite guarantee: a FaultInjector campaign run under ``--jobs N`` is
byte-identical to the serial run *with the oracle enabled* — the oracle
is a pure observer, so attaching it (in any worker) must not perturb the
simulation, and the fault-relaxed invariants must hold on every backend.
"""

import pytest

from repro.config import SimulationConfig
from repro.harness.campaign import CampaignConfig, CampaignEngine
from repro.harness.runner import ExperimentSpec
from repro.stats.results import results_to_json

pytestmark = pytest.mark.faults

SIM = SimulationConfig(warmup_cycles=100, measure_cycles=500,
                       drain_cycles=500, deadlock_abort_cycles=600)
RATES = [0.04, 0.08, 0.12]


def _faulted_specs(verify: bool):
    specs = []
    for fault, fault_seed in [("sm_drop:p=0.05", 11),
                              ("link_down@300:r5-r6", 3),
                              ("sm_delay:p=0.10:d=4", 7)]:
        for rate in RATES:
            specs.append(ExperimentSpec(
                design="spin_mesh", pattern="uniform", injection_rate=rate,
                seed=2, mesh_side=4, tdd=32, faults=fault,
                fault_seed=fault_seed, sim=SIM, verify=verify))
    return specs


def _points(specs, jobs):
    report = CampaignEngine(specs, config=CampaignConfig(jobs=jobs)).run()
    results = report.results
    assert all(r.ok for r in results), \
        [str(r.error) for r in results if not r.ok]
    return [r.point for r in results]


class TestFaultedParallelWithOracle:
    def test_jobs2_byte_identical_to_serial(self):
        specs = _faulted_specs(verify=True)
        serial = _points(specs, jobs=1)
        parallel = _points(specs, jobs=2)
        assert serial == parallel
        # Byte-level identity of the serialized results documents.
        meta = {"campaign": "faults+oracle"}
        assert results_to_json(serial, meta) == results_to_json(
            parallel, meta)

    def test_oracle_holds_under_faults(self):
        """Raise-mode oracle (verify=True) in every worker: completing the
        run proves the fault-relaxed invariants held everywhere."""
        specs = _faulted_specs(verify=True)
        points = _points(specs, jobs=2)
        assert all(point.invariant_violations == 0 for point in points)

    def test_oracle_is_a_pure_observer_under_faults(self):
        """verify=True vs verify=False must yield identical measurements
        (modulo the violation counter itself, which is 0 here anyway)."""
        with_oracle = _points(_faulted_specs(verify=True), jobs=1)
        without = _points(_faulted_specs(verify=False), jobs=1)
        assert with_oracle == without
