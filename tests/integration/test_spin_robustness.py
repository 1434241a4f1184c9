"""Robustness of SPIN to heterogeneous link delays and injected faults.

Part one (paper Sec. IV-C3): the theory only needs all loop routers to
*start* the spin together; the common start time is derived from the
measured total loop delay, so routers and links may have arbitrary (fixed)
delays.  These tests craft deadlocked rings over 2-cycle links and over
mixed 1/2/3-cycle links and verify the full distributed recovery still
resolves them within the theorem bound.

Part two (docs/FAULTS.md): SPIN hardened against *lost* special messages
and runtime link failures.  A dropped probe must be recovered by the
initiator watchdog within a bound derived from the theorem's loop-delay
bound, and deadlock recovery must keep working while unrelated links die.
"""

import networkx as nx
import pytest

from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.deadlock.waitgraph import has_deadlock
from repro.faults import FaultInjector, parse_fault_spec
from repro.network.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim.engine import Simulator
from repro.topology.irregular import IrregularTopology
from repro.topology.ring import RingTopology

from tests.conftest import craft_ring_deadlock, craft_square_deadlock, \
    make_mesh_network


def _plant_cycle_graph_deadlock(network, m, dst_ahead=2):
    """Plant a deadlocked ring on an IrregularTopology cycle graph."""
    port_toward = network.topology.port_toward
    return [
        network.plant_packet(router_id,
                             port_toward(router_id, (router_id - 1) % m),
                             (router_id + dst_ahead) % m,
                             src_router=(router_id - 1) % m)
        for router_id in range(m)
    ]


class TestUniformSlowLinks:
    @pytest.mark.parametrize("latency", [2, 3])
    def test_ring_with_slow_links_recovers(self, latency):
        m = 6
        network = Network(RingTopology(m, link_latency=latency),
                          NetworkConfig(vcs_per_vnet=1),
                          MinimalAdaptiveRouting(1),
                          spin=SpinParams(tdd=16), seed=1)
        packets = craft_ring_deadlock(network, dst_ahead=2)
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        assert has_deadlock(network, sim.cycle)
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=4000)
        assert done
        assert max(p.spins for p in packets) <= m - 1

    def test_loop_delay_reflects_link_latency(self):
        # The probe measures the loop delay, so the spin cycle scales with
        # the physical link latency automatically.
        def first_spin_cycle(latency):
            network = Network(RingTopology(6, link_latency=latency),
                              NetworkConfig(vcs_per_vnet=1),
                              MinimalAdaptiveRouting(1),
                              spin=SpinParams(tdd=16), seed=1)
            craft_ring_deadlock(network, dst_ahead=2)
            sim = Simulator()
            sim.register(network)
            sim.run_until(
                lambda: network.stats.events.get("moves_returned", 0) >= 1,
                max_cycles=2000)
            initiators = [c for c in network.spin.controllers
                          if c.spin_cycle is not None]
            assert initiators
            controller = initiators[0]
            return controller.loop_delay

        assert first_spin_cycle(2) > first_spin_cycle(1)


class TestMixedLinkDelays:
    def _mixed_ring(self, m=6):
        graph = nx.cycle_graph(m)
        latencies = {}
        for i, (u, v) in enumerate(sorted(graph.edges)):
            latencies[(min(u, v), max(u, v))] = 1 + i % 3  # 1,2,3,1,2,3
        return IrregularTopology(graph, link_latency=latencies)

    def test_mixed_delay_loop_recovers(self):
        m = 6
        network = Network(self._mixed_ring(m), NetworkConfig(vcs_per_vnet=1),
                          MinimalAdaptiveRouting(1),
                          spin=SpinParams(tdd=24), seed=2)
        packets = _plant_cycle_graph_deadlock(network, m)
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        assert has_deadlock(network, sim.cycle)
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=6000)
        assert done, dict(network.stats.events)
        assert max(p.spins for p in packets) <= m - 1

    def test_conservation_on_mixed_delays(self):
        m = 6
        network = Network(self._mixed_ring(m), NetworkConfig(vcs_per_vnet=1),
                          MinimalAdaptiveRouting(1),
                          spin=SpinParams(tdd=24), seed=2)
        packets = _plant_cycle_graph_deadlock(network, m)
        sim = Simulator()
        sim.register(network)
        sim.run(6000)
        assert network.stats.packets_delivered == len(packets)
        assert network.spin.frozen_vc_count() == 0


class TestDragonflyGlobalLinkLoops:
    def test_recovery_spanning_global_links(self):
        # Live adversarial traffic on a 1-VC dragonfly: deadlock loops span
        # 3-cycle global links; recovery must still work (Sec. IV-C3's
        # off-chip claim).
        from repro.topology.dragonfly import DragonflyTopology
        from repro.traffic.generator import PacketMix, SyntheticTraffic
        from repro.traffic.patterns import make_pattern

        network = Network(DragonflyTopology(2, 4, 2),
                          NetworkConfig(vcs_per_vnet=1),
                          MinimalAdaptiveRouting(3),
                          spin=SpinParams(tdd=32), seed=3)
        network.stats.open_window(0, 1000)
        traffic = SyntheticTraffic(
            network,
            make_pattern("bit_complement", network.topology.num_nodes),
            0.40, seed=3, stop_at=1000, mix=PacketMix.single(1))
        sim = Simulator()
        sim.register(traffic)
        sim.register(network)
        sim.run(8000)
        stats = network.stats
        # Deadlocks spanning 3-cycle global links formed and were spun.
        assert stats.events.get("spins", 0) >= 1
        # Deep overload: full drain is not expected in this window, but
        # nothing may be lost or duplicated.
        assert stats.packets_created == (
            stats.packets_delivered + network.packets_in_flight()
            + network.total_backlog())
        assert stats.packets_delivered > 0


# ----------------------------------------------------------------------
# Injected faults (docs/FAULTS.md)
# ----------------------------------------------------------------------
def _ring_with_faults(spec, m=6, tdd=300, seed=1):
    spin = SpinParams(tdd=tdd)
    network = Network(RingTopology(m), NetworkConfig(vcs_per_vnet=1),
                      MinimalAdaptiveRouting(seed), spin=spin, seed=seed)
    injector = FaultInjector(parse_fault_spec(spec), seed=seed)
    injector.bind(network)
    packets = craft_ring_deadlock(network, dst_ahead=2)
    sim = Simulator()
    sim.register(injector)
    sim.register(network)
    return network, packets, sim


@pytest.mark.faults
class TestSmLossWatchdog:
    def test_dropped_probes_recovered_by_watchdog(self):
        """Liveness regression: every initial probe is dropped at the
        detection instant; the initiator watchdogs must fire, retry, and
        resolve the deadlock well before the next natural tDD rotation."""
        m, tdd = 6, 300
        network, packets, sim = _ring_with_faults(
            f"sm_drop:kind=probe:n={m}", m=m, tdd=tdd)
        sim.run(2)
        assert has_deadlock(network, sim.cycle)
        spin = network.spin
        # Watchdog timeout: the theorem-derived SM round-trip bound plus
        # margin; give the whole recovery 3x that on top of detection.
        bound = spin.sm_rtt_bound + spin.params.watchdog_margin
        assert bound < tdd  # the watchdog must beat the tDD rotation
        deadline = tdd + 3 * bound + 8 * m
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=deadline)
        events = dict(network.stats.events)
        assert done, events
        assert events.get("sm_dropped", 0) >= m
        assert events.get("watchdog_fires", 0) >= 1
        assert events.get("probe_retries", 0) >= 1
        assert network.spin.frozen_vc_count() == 0

    def test_dropped_moves_recovered_via_kill_path(self):
        """Every first-round move SM is lost: the MOVE watchdog cancels the
        spin via kill_move and a later probe round completes recovery."""
        m, tdd = 6, 64
        network, packets, sim = _ring_with_faults(
            f"sm_drop:kind=move:n={m}", m=m, tdd=tdd)
        sim.run(2)
        assert has_deadlock(network, sim.cycle)
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=40 * tdd)
        events = dict(network.stats.events)
        assert done, events
        assert events.get("sm_dropped_move", 0) >= 1
        assert events.get("watchdog_fires", 0) >= 1
        assert events.get("kill_moves_sent", 0) >= 1

    def test_dropped_kill_moves_bounded_retries(self):
        """Kill_moves are also lossy: bounded retries with backoff must
        still unfreeze everyone (or the freeze timeout escape must)."""
        m, tdd = 6, 64
        network, packets, sim = _ring_with_faults(
            f"sm_drop:kind=move:n={m},sm_drop:kind=kill_move:n=2",
            m=m, tdd=tdd)
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=60 * tdd)
        events = dict(network.stats.events)
        assert done, events
        assert events.get("kill_move_retries", 0) >= 1
        assert network.spin.frozen_vc_count() == 0

    def test_continuous_probe_loss_degrades_without_hanging(self):
        """A permanently lossy probe path: watchdogs give up after the
        retry budget instead of retrying forever.  tdd is set above the
        full backoff chain so one chain can exhaust its budget before the
        next detection rotation re-arms the watchdog with a fresh probe."""
        m, tdd = 6, 600
        network, packets, sim = _ring_with_faults(
            "sm_drop:kind=probe", m=m, tdd=tdd)
        spin = network.spin
        params = spin.params
        chain = sum(
            spin.sm_rtt_bound * params.backoff_factor ** r
            + params.watchdog_margin
            for r in range(params.max_sm_retries + 1))
        assert chain < tdd  # the budget must exhaust before rotation
        sim.run(tdd * 3)
        events = dict(network.stats.events)
        assert network.stats.packets_delivered == 0  # nothing can recover
        assert events.get("watchdog_gave_up", 0) >= 1
        retries = events.get("probe_retries", 0)
        max_retries = network.spin.params.max_sm_retries
        fires = events.get("watchdog_fires", 0)
        # Retries are bounded per round trip, never one per fire forever.
        assert retries <= fires * max_retries


@pytest.mark.faults
class TestFaultsDuringRecovery:
    def test_square_deadlock_recovers_beside_dead_link(self):
        """A crafted mesh deadlock plus an unrelated runtime link failure:
        SPIN recovery and graceful routing degradation must coexist."""
        network = make_mesh_network(side=4, spin=SpinParams(tdd=32))
        injector = FaultInjector(parse_fault_spec("link_down@5:r12-r13"),
                                 seed=3)
        injector.bind(network)
        packets = craft_square_deadlock(network)
        sim = Simulator()
        sim.register(injector)
        sim.register(network)
        sim.run(2)
        assert has_deadlock(network, sim.cycle)
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=4000)
        events = dict(network.stats.events)
        assert done, events
        assert network.dead_link_count == 2  # the failure persists
        assert events.get("spins", 0) >= 1
        assert events.get("recoveries_after_fault", 0) >= 1
        assert network.spin.frozen_vc_count() == 0

    def test_sweep_point_surfaces_fault_counters(self):
        """End-to-end harness path: fault counters travel through
        ExperimentSpec.run into the SweepPoint the experiments consume."""
        from repro.harness.runner import ExperimentSpec

        sim_config = SimulationConfig(warmup_cycles=200, measure_cycles=1200,
                                      drain_cycles=600)
        # A dead link on an 8x8 mesh strands traffic and eats probes, so
        # the initiator watchdogs demonstrably fire during the window.
        _, point = ExperimentSpec(
            design="spin_mesh", injection_rate=0.05, sim=sim_config,
            mesh_side=8, tdd=32,
            faults="link_down@300:r3-r4,sm_drop:p=0.01", fault_seed=7).run()
        assert point.events.get("faults_injected", 0) >= 1
        assert point.events.get("sm_dropped", 0) >= 1
        assert point.events.get("watchdog_fires", 0) >= 1
        assert point.packets_lost == point.events.get("packets_lost", 0)
