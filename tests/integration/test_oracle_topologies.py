"""The invariant oracle in raise mode across every topology/routing combo.

Acceptance gate for the oracle: a *correct* design must survive a full
oracle-enabled run with zero violations on every topology and routing
family in the repo — mesh and dragonfly Table III designs, torus under
bubble flow control, rings, irregular (faulty) meshes with up*/down*
routing, and crafted-deadlock SPIN recovery including live spins,
probes, and frozen VCs.  ``verify=True`` attaches the oracle in raise
mode, so merely completing the run asserts all invariants held.
"""

import pytest

from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.deadlock.waitgraph import has_deadlock
from repro.harness.runner import ExperimentSpec
from repro.network.network import Network
from repro.sim.engine import Simulator
from repro.topology.torus import TorusTopology
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern
from repro.verify.oracle import InvariantOracle, OracleConfig

from tests.conftest import (
    craft_ring_deadlock,
    craft_square_deadlock,
    make_mesh_network,
    make_ring_network,
)

SHORT = SimulationConfig(warmup_cycles=150, measure_cycles=700,
                         drain_cycles=2000, deadlock_abort_cycles=1200)


def _strict_run(network, traffic=None, cycles=2000):
    """Simulate under a raise-mode oracle; returns (simulator, oracle)."""
    simulator = Simulator()
    if traffic is not None:
        simulator.register(traffic)
    simulator.register(network)
    oracle = InvariantOracle(network, OracleConfig(mode="raise"))
    oracle.attach(simulator)
    simulator.run(cycles)
    return simulator, oracle


def run_spec(design, pattern, rate, **kwargs):
    """One registry design point over the SHORT windows."""
    return ExperimentSpec(design=design, pattern=pattern,
                          injection_rate=rate, sim=SHORT, **kwargs).run()


# ----------------------------------------------------------------------
# Table III designs: every routing family on mesh and dragonfly
# ----------------------------------------------------------------------
class TestMeshDesignsUnderOracle:
    @pytest.mark.parametrize("design", [
        "mesh:westfirst-2vc",           # turn-model avoidance
        "mesh:escapevc-2vc",            # escape-VC avoidance
        "mesh:staticbubble-2vc",        # localized-recovery baseline
        "mesh:minadaptive-spin-2vc",    # SPIN recovery
        "mesh:favors-min-spin-1vc",     # non-minimal adaptive + SPIN
        "mesh:minadaptive-nospin-3vc",  # plain adaptive, no recovery
    ])
    def test_uniform_load_zero_violations(self, design):
        network, point = run_spec(design, "uniform", 0.12,
                                  mesh_side=4, tdd=32, verify=True)
        assert not point.wedged
        assert point.invariant_violations == 0
        assert network.stats.packets_delivered == network.stats.packets_created

    @pytest.mark.parametrize("pattern", ["transpose", "tornado"])
    def test_adversarial_patterns_with_spin(self, pattern):
        network, point = run_spec("mesh:minadaptive-spin-1vc", pattern,
                                  0.10, mesh_side=4, tdd=24,
                                  verify=True)
        assert not point.wedged
        assert point.invariant_violations == 0


class TestDragonflyDesignsUnderOracle:
    @pytest.mark.parametrize("design", [
        "dfly:ugal-dally-3vc",          # Dally VC-discipline avoidance
        "dfly:ugal-spin-3vc",           # UGAL + SPIN
        "dfly:minimal-spin-1vc",        # minimal + SPIN, 1 VC
    ])
    def test_uniform_load_zero_violations(self, design):
        network, point = run_spec(design, "uniform", 0.08,
                                  dragonfly=(2, 4, 2), tdd=32,
                                  verify=True)
        assert not point.wedged
        assert point.invariant_violations == 0

    def test_live_spin_recovery_under_strict_oracle(self):
        """Tornado on a 1-VC dragonfly deadlocks; SPIN recovery — probes,
        moves, frozen VCs, the spin itself — must not trip the oracle."""
        network, point = run_spec("dfly:favors-nmin-spin-1vc", "tornado",
                                  0.30, dragonfly=(2, 4, 2),
                                  tdd=32, verify=True)
        assert not point.wedged
        assert point.events.get("spins", 0) >= 1
        assert point.invariant_violations == 0


# ----------------------------------------------------------------------
# Torus: wraparound datapath under bubble flow control
# ----------------------------------------------------------------------
class TestTorusUnderOracle:
    def test_bubble_torus_zero_violations(self):
        from repro.deadlock.bubble import BubbleFlowControlRouting

        network = Network(
            topology=TorusTopology(4, 4),
            config=NetworkConfig(vcs_per_vnet=1),
            routing=BubbleFlowControlRouting(5),
            spin=None,
            seed=5,
        )
        traffic = SyntheticTraffic(
            network, make_pattern("uniform", 16, 4), 0.20, seed=5,
            stop_at=1200)
        simulator, _ = _strict_run(network, traffic, cycles=2400)
        stats = network.stats
        assert stats.packets_delivered == stats.packets_created
        assert stats.packets_delivered > 0
        assert not has_deadlock(network, simulator.cycle)

    def test_spin_torus_zero_violations(self):
        from repro.routing.adaptive import MinimalAdaptiveRouting

        network = Network(
            topology=TorusTopology(4, 4),
            config=NetworkConfig(vcs_per_vnet=1),
            routing=MinimalAdaptiveRouting(9),
            spin=SpinParams(tdd=32),
            seed=9,
        )
        traffic = SyntheticTraffic(
            network, make_pattern("uniform", 16, 4), 0.15, seed=9,
            stop_at=1200)
        _strict_run(network, traffic, cycles=3000)
        stats = network.stats
        assert stats.packets_delivered == stats.packets_created


# ----------------------------------------------------------------------
# Ring and irregular topologies
# ----------------------------------------------------------------------
class TestOtherTopologiesUnderOracle:
    def test_ring_crafted_deadlock_spin_recovers(self):
        network = make_ring_network(m=6, spin=SpinParams(tdd=16))
        craft_ring_deadlock(network)
        assert has_deadlock(network, 0)
        simulator, _ = _strict_run(network, cycles=2000)
        assert not has_deadlock(network, simulator.cycle)
        assert network.is_drained()
        assert network.stats.events.get("spins", 0) >= 1

    def test_faulty_mesh_updown_zero_violations(self):
        from repro.routing.table import UpDownRouting
        from repro.topology.irregular import faulty_mesh

        topology = faulty_mesh(4, 4, num_failed_links=3)
        network = Network(
            topology=topology,
            config=NetworkConfig(vcs_per_vnet=2),
            routing=UpDownRouting(seed=2),
            spin=None,
            seed=2,
        )
        traffic = SyntheticTraffic(
            network, make_pattern("uniform", topology.num_nodes, 4),
            0.08, seed=2, stop_at=1000)
        _strict_run(network, traffic, cycles=2200)
        stats = network.stats
        assert stats.packets_delivered == stats.packets_created


# ----------------------------------------------------------------------
# Crafted mesh deadlock: full SPIN recovery path under the oracle
# ----------------------------------------------------------------------
class TestCraftedRecoveryUnderOracle:
    def test_square_deadlock_recovery_zero_violations(self):
        network = make_mesh_network(spin=SpinParams(tdd=16))
        packets = craft_square_deadlock(network)
        assert has_deadlock(network, 0)
        simulator, oracle = _strict_run(network, cycles=1500)
        assert not has_deadlock(network, simulator.cycle)
        assert network.is_drained()
        assert network.stats.events.get("spins", 0) >= 1
        assert network.stats.packets_delivered == len(packets)
        # Raise-mode oracle that completed the run saw no violations.
        assert oracle.violation_count == 0

    def test_deadlock_persistence_bound_not_tripped_by_recovery(self):
        """SPIN resolves the crafted deadlock well within the oracle's
        persistence bound, so even an aggressive check interval stays
        silent."""
        network = make_mesh_network(spin=SpinParams(tdd=16))
        craft_square_deadlock(network)
        simulator = Simulator()
        simulator.register(network)
        oracle = InvariantOracle(
            network, OracleConfig(mode="raise", deadlock_check_interval=8))
        oracle.attach(simulator)
        simulator.run(1500)
        assert oracle.violation_count == 0
        assert not has_deadlock(network, simulator.cycle)
