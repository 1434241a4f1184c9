"""Determinism: identical seeds must reproduce identical simulations.

Reproducibility is load-bearing for the whole benchmark methodology (the
same workload must hit every design identically) and for debugging (any
failure can be replayed).  These tests run complete simulations twice and
require exact equality of every observable.
"""

from repro.config import SimulationConfig, SpinParams
from repro.harness.runner import ExperimentSpec
from repro.stats.sweep import simulate_point
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern

from tests.conftest import make_mesh_network

SIM = SimulationConfig(warmup_cycles=200, measure_cycles=1200,
                       drain_cycles=1200)


def fingerprint(network, point):
    stats = network.stats
    return (
        stats.packets_created,
        stats.packets_delivered,
        tuple(stats.latencies),
        tuple(stats.hop_counts),
        tuple(sorted(stats.events.items())),
        round(point.mean_latency, 6),
        round(point.throughput, 6),
    )


def run_spin_mesh(seed):
    network = make_mesh_network(side=4, vcs=1, spin=SpinParams(tdd=24),
                                seed=seed)
    traffic = SyntheticTraffic(network, make_pattern("uniform", 16), 0.25,
                               seed=seed,
                               stop_at=SIM.warmup_cycles + SIM.measure_cycles)
    return network, simulate_point(network, traffic, SIM,
                                   injection_rate=0.25)


class TestExactReplay:
    def test_same_seed_identical_everything(self):
        first = fingerprint(*run_spin_mesh(seed=9))
        second = fingerprint(*run_spin_mesh(seed=9))
        assert first == second

    def test_different_seed_differs(self):
        first = fingerprint(*run_spin_mesh(seed=9))
        other = fingerprint(*run_spin_mesh(seed=10))
        assert first != other

    def test_spin_recovery_is_deterministic(self):
        # A run with heavy SPIN activity (probes, contention drops, spins)
        # replays exactly: the whole control plane is seed-stable.
        _, point_a = run_spin_mesh(seed=3)
        _, point_b = run_spin_mesh(seed=3)
        assert point_a.events == point_b.events

    def test_design_runner_deterministic(self):
        results = [
            ExperimentSpec(design="mesh:escapevc-2vc", pattern="transpose",
                           injection_rate=0.12, sim=SIM, seed=4,
                           mesh_side=4).run()[1]
            for _ in range(2)
        ]
        assert results[0].mean_latency == results[1].mean_latency
        assert results[0].events == results[1].events
