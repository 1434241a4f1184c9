"""End-to-end integration across topologies and design points.

Each test drives a full design (topology + routing + control plane) with
live traffic and asserts delivery, conservation, and deadlock freedom —
the properties the paper's Table III configurations must all satisfy.
"""

import pytest

from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.deadlock.waitgraph import has_deadlock
from repro.harness.runner import ExperimentSpec
from repro.network.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.routing.favors import FavorsNonMinimal
from repro.routing.table import UpDownRouting
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.topology.irregular import faulty_mesh
from repro.traffic.generator import PacketMix, SyntheticTraffic
from repro.traffic.patterns import make_pattern

SHORT = SimulationConfig(warmup_cycles=200, measure_cycles=1200,
                         drain_cycles=2500, deadlock_abort_cycles=1200)


def run_spec(design, pattern, rate, **kwargs):
    """One registry design point over the SHORT windows."""
    return ExperimentSpec(design=design, pattern=pattern,
                          injection_rate=rate, sim=SHORT, **kwargs).run()


class TestMeshDesigns:
    @pytest.mark.parametrize("design", [
        "mesh:westfirst-3vc",
        "mesh:escapevc-3vc",
        "mesh:staticbubble-3vc",
        "mesh:minadaptive-spin-3vc",
        "mesh:favors-min-spin-1vc",
    ])
    def test_moderate_load_delivers_everything(self, design):
        network, point = run_spec(design, "uniform", 0.15,
                                  mesh_side=4, tdd=32)
        assert not point.wedged
        assert network.stats.packets_delivered == network.stats.packets_created
        assert not has_deadlock(network, network.now)

    @pytest.mark.parametrize("pattern", ["transpose", "bit_reverse",
                                         "tornado", "bit_complement"])
    def test_favors_min_handles_every_pattern(self, pattern):
        network, point = run_spec("mesh:favors-min-spin-1vc", pattern,
                                  0.10, mesh_side=4, tdd=32)
        assert not point.wedged
        assert point.delivery_ratio == 1.0


class TestDragonflyDesigns:
    @pytest.mark.parametrize("design", [
        "dfly:ugal-dally-3vc",
        "dfly:ugal-spin-3vc",
        "dfly:minimal-spin-1vc",
        "dfly:favors-nmin-spin-1vc",
    ])
    def test_moderate_load_delivers_everything(self, design):
        network, point = run_spec(design, "uniform", 0.10,
                                  dragonfly=(2, 4, 2), tdd=32)
        assert not point.wedged
        assert network.stats.packets_delivered == network.stats.packets_created

    def test_one_vc_dragonfly_deadlocks_and_spin_recovers(self):
        network, point = run_spec("dfly:favors-nmin-spin-1vc", "tornado",
                                  0.30, dragonfly=(2, 4, 2), tdd=32)
        assert not point.wedged
        # Adversarial tornado on 1 VC reliably creates deadlocks.
        assert point.events.get("spins", 0) >= 1

    def test_ugal_discipline_prevents_deadlock_without_recovery(self):
        network, point = run_spec("dfly:ugal-dally-3vc", "tornado", 0.25,
                                  dragonfly=(2, 4, 2))
        assert not point.wedged
        assert not has_deadlock(network, network.now)

    def test_unrestricted_without_recovery_wedges(self):
        network, point = run_spec("dfly:minimal-nospin-1vc", "tornado",
                                  0.35, dragonfly=(2, 4, 2))
        assert point.wedged or not has_deadlock(network, network.now)
        # At this load the 1-VC dragonfly deadlocks deterministically for
        # this seed; assert the oracle agrees when it wedged.
        if point.wedged:
            assert has_deadlock(network, network.now)


class TestIrregularTopologies:
    def _network(self, routing, spin=None, seed=5):
        topology = faulty_mesh(4, 4, num_failed_links=5,
                               rng=DeterministicRng(11))
        return Network(topology, NetworkConfig(vcs_per_vnet=1), routing,
                       spin=spin, seed=seed)

    def _drive(self, network, rate=0.10, cycles=6000, seed=5):
        network.stats.open_window(0, 1500)
        traffic = SyntheticTraffic(
            network, make_pattern("uniform", 16), rate, seed=seed,
            stop_at=1500, mix=PacketMix.single(1))
        sim = Simulator()
        sim.register(traffic)
        sim.register(network)
        sim.run(cycles)
        return network

    def test_updown_is_deadlock_free_without_recovery(self):
        network = self._drive(self._network(UpDownRouting(0)), rate=0.15)
        assert network.is_drained()
        assert not has_deadlock(network, network.now)

    def test_spin_enables_unrestricted_routing_on_faulty_mesh(self):
        network = self._drive(
            self._network(MinimalAdaptiveRouting(0),
                          spin=SpinParams(tdd=32)), rate=0.20)
        assert network.is_drained(), (
            network.packets_in_flight(), network.total_backlog())

    def test_spin_paths_shorter_than_updown(self):
        spin_net = self._drive(
            self._network(MinimalAdaptiveRouting(0),
                          spin=SpinParams(tdd=32)), rate=0.08)
        updown_net = self._drive(self._network(UpDownRouting(0)), rate=0.08)
        assert spin_net.stats.mean_hops() <= updown_net.stats.mean_hops()

    def test_favors_nonminimal_on_irregular(self):
        # 0.15 flits/node/cycle is deep saturation for this degraded 1-VC
        # mesh: give the backlog time to drain through repeated recoveries.
        network = self._drive(
            self._network(FavorsNonMinimal(0), spin=SpinParams(tdd=32)),
            rate=0.15, cycles=12000)
        assert network.is_drained(), (
            network.packets_in_flight(), network.total_backlog())
