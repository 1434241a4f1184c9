"""Unit tests for the runtime invariant oracle (repro.verify)."""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.core.fsm import SpinState
from repro.errors import ConfigurationError, InvariantViolation
from repro.network.network import Network
from repro.network.packet import Packet
from repro.routing.dor import DimensionOrderRouting
from repro.sim import create_engine
from repro.sim.engine import Simulator
from repro.stats.sweep import SweepPoint, simulate_point
from repro.topology.mesh import MeshTopology
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern
from repro.verify import INVARIANTS, InvariantOracle, OracleConfig
from repro.verify.invariants import iter_resident

from tests.conftest import (
    craft_square_deadlock,
    make_mesh_network,
    simulate,
)


def _traffic(network, rate=0.2, stop_at=400, seed=1):
    pattern = make_pattern("uniform", network.topology.num_nodes, 4)
    return SyntheticTraffic(network, pattern, rate, seed=seed,
                            stop_at=stop_at)


def run_with_oracle(network, cycles=300, config=None, rate=0.2):
    simulator = Simulator()
    simulator.register(_traffic(network, rate=rate, stop_at=cycles - 50))
    simulator.register(network)
    oracle = InvariantOracle(network, config or OracleConfig(mode="raise"))
    oracle.attach(simulator)
    simulator.run(cycles)
    return oracle


def families(violations):
    return {violation.invariant for violation in violations}


def phantom_credit(router):
    """Corrupt a router's occupancy mask: set the bit of an empty VC."""
    for _, vcs in router.all_inports():
        for vc in vcs:
            if vc.packet is None:
                router.occupied |= vc.bit
                return
    raise AssertionError("router has no empty VC")


# ----------------------------------------------------------------------
# Engine observer mechanics
# ----------------------------------------------------------------------
class _Recorder:
    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def phase_control(self, cycle):
        self.log.append((self.tag, "control", cycle))

    def phase_collect(self, cycle):
        self.log.append((self.tag, "collect", cycle))


def test_observers_run_after_all_components_each_phase():
    simulator = Simulator()
    log = []
    observer = _Recorder(log, "observer")
    simulator.register_observer(observer)  # registered FIRST on purpose
    simulator.register(_Recorder(log, "a"))
    simulator.register(_Recorder(log, "b"))
    simulator.step()
    assert log == [
        ("a", "control", 0), ("b", "control", 0), ("observer", "control", 0),
        ("a", "collect", 0), ("b", "collect", 0), ("observer", "collect", 0),
    ]


def test_registering_observer_mid_run_rebuilds_schedule():
    simulator = Simulator()
    log = []
    simulator.register(_Recorder(log, "a"))
    simulator.step()
    simulator.register_observer(_Recorder(log, "late"))
    simulator.step()
    assert ("late", "collect", 1) in log
    assert ("late", "collect", 0) not in log


# ----------------------------------------------------------------------
# Clean runs
# ----------------------------------------------------------------------
def test_clean_run_has_no_violations(mesh4_spin):
    oracle = run_with_oracle(mesh4_spin)
    assert oracle.violation_count == 0
    assert oracle.violations == []


def test_crafted_deadlock_is_not_a_false_positive(mesh4):
    # A genuine deadlock on a no-recovery network must not trip anything:
    # deadlock persistence is only enforced when a theory promises freedom.
    craft_square_deadlock(mesh4)
    oracle = InvariantOracle(mesh4, OracleConfig(mode="raise"))
    assert oracle.deadlock_bound is None
    simulator = Simulator()
    simulator.register(mesh4)
    oracle.attach(simulator)
    simulator.run(200)
    assert oracle.violation_count == 0


def test_iter_resident_sees_planted_packets(mesh4):
    packets = craft_square_deadlock(mesh4)
    seen = {uid for uid, _, _ in iter_resident(mesh4)}
    assert {packet.uid for packet in packets} <= seen


# ----------------------------------------------------------------------
# Config and policy
# ----------------------------------------------------------------------
def test_config_rejects_bad_mode_interval_and_checks():
    with pytest.raises(ConfigurationError):
        OracleConfig(mode="explode")
    with pytest.raises(ConfigurationError):
        OracleConfig(check_interval=0)
    with pytest.raises(ConfigurationError):
        OracleConfig(checks={"not_an_invariant"})


def test_double_attach_rejected(mesh4):
    oracle = InvariantOracle(mesh4)
    simulator = Simulator()
    oracle.attach(simulator)
    with pytest.raises(ConfigurationError):
        oracle.attach(simulator)


def test_raise_mode_raises_on_corruption(mesh4):
    craft_square_deadlock(mesh4)
    phantom_credit(mesh4.routers[5])
    oracle = InvariantOracle(mesh4, OracleConfig(mode="raise"))
    simulator = Simulator()
    simulator.register(mesh4)
    oracle.attach(simulator)
    with pytest.raises(InvariantViolation) as excinfo:
        simulator.run(2)
    assert excinfo.value.invariant == "credit_conservation"
    assert excinfo.value.context["router"] == 5


def test_record_mode_counts_and_dedups(mesh4):
    craft_square_deadlock(mesh4)
    phantom_credit(mesh4.routers[5])
    oracle = InvariantOracle(mesh4, OracleConfig(mode="record"))
    simulator = Simulator()
    simulator.register(mesh4)
    oracle.attach(simulator)
    simulator.run(10)
    # every cycle re-detects the same site: counted 10x, recorded once
    assert oracle.violation_count == 10
    assert len(oracle.violations) == 1
    assert mesh4.stats.events["invariant_violations"] == 10
    assert mesh4.stats.events["violation_credit_conservation"] == 10


def test_max_violations_saturates_checking(mesh4):
    craft_square_deadlock(mesh4)
    for router in mesh4.routers:
        phantom_credit(router)
    oracle = InvariantOracle(
        mesh4, OracleConfig(mode="record", max_violations=3))
    simulator = Simulator()
    simulator.register(mesh4)
    oracle.attach(simulator)
    simulator.run(50)
    assert len(oracle.violations) <= 3 + len(mesh4.routers)
    assert mesh4.stats.events["oracle_saturated"] >= 1
    total_after = oracle.violation_count
    simulator.run(50)
    assert oracle.violation_count == total_after  # checking stopped


def test_checks_subset_restricts_families(mesh4):
    craft_square_deadlock(mesh4)
    phantom_credit(mesh4.routers[5])          # credit_conservation bait
    oracle = InvariantOracle(
        mesh4, OracleConfig(mode="record", checks={"vc_occupancy"}))
    found = oracle.check_now()
    assert found == []  # the credit corruption family is disabled


# ----------------------------------------------------------------------
# check_now and stateless families
# ----------------------------------------------------------------------
def test_check_now_detects_credit_drift(mesh4):
    craft_square_deadlock(mesh4)
    oracle = InvariantOracle(mesh4, OracleConfig(mode="record"))
    assert oracle.check_now() == []
    router = mesh4.routers[5]
    router.occupied &= router.occupied - 1   # drop one occupied VC's bit
    assert families(oracle.check_now()) == {"credit_conservation"}


def test_nic_sleep_is_checked_under_the_soa_core(mesh4):
    """Every engine injects through the object datapath, so the NIC half of
    the sleep check holds with the fast engine's SoA core attached too."""
    simulator = create_engine("fast")
    simulator.register(mesh4)
    oracle = InvariantOracle(mesh4, OracleConfig(mode="record"))
    oracle.attach(simulator)
    simulator.run(1)
    assert simulator.engine_path == "soa"
    assert mesh4.engine_sink is simulator._core
    nic = mesh4.nics[5]
    nic.enqueue(Packet(src_node=5, dst_node=10, src_router=nic.router_id,
                       dst_router=mesh4.topology.router_of_node(10),
                       length=1, vnet=0, create_cycle=1))
    assert oracle.check_now() == []
    # Planted: the port and its VC are idle now, but the NIC sleeps on.
    nic.wake = 1 << 40
    simulator.run(1)
    assert nic.backlog() == 1
    assert [str(v).split(" [")[0] for v in oracle.violations] == [
        "a sleeping NIC could inject before its wake time"]
    mesh4.backlogged.discard(nic.node)
    found = oracle.check_now()
    assert families(found) == {"credit_conservation"}
    assert [str(v).split(" [")[0] for v in found] == [
        "a NIC with queued packets is not backlogged"]


def test_check_now_detects_length_out_of_bounds(mesh4):
    packets = craft_square_deadlock(mesh4)
    oracle = InvariantOracle(mesh4, OracleConfig(mode="record"))
    assert oracle.check_now() == []
    packets[0].length = mesh4.config.buffer_depth + 1
    assert families(oracle.check_now()) == {"vc_occupancy"}


def test_check_now_detects_overfilled_vc_timing(mesh4):
    craft_square_deadlock(mesh4)
    oracle = InvariantOracle(mesh4, OracleConfig(mode="record"))
    assert oracle.check_now() == []
    router, inport, vc = next(iter(mesh4.occupied_vcs()))
    vc.tail_arrival = vc.head_arrival + vc.packet.length  # one extra flit
    assert families(oracle.check_now()) == {"vc_occupancy"}


def test_check_now_detects_link_over_occupancy(mesh4):
    oracle = InvariantOracle(mesh4, OracleConfig(mode="record"))
    assert oracle.check_now() == []
    link = next(iter(mesh4.links.values()))
    link.busy_until = mesh4.now + mesh4.config.max_packet_length + 7
    assert families(oracle.check_now()) == {"link_accounting"}


def test_check_now_detects_negative_link_counter(mesh4):
    oracle = InvariantOracle(mesh4, OracleConfig(mode="record"))
    assert oracle.check_now() == []
    next(iter(mesh4.links.values())).flit_cycles = -2
    assert families(oracle.check_now()) == {"link_accounting"}


# ----------------------------------------------------------------------
# Delivery hooks
# ----------------------------------------------------------------------
def _delivered_packet(network):
    """Run traffic until at least one packet was delivered; return one."""
    simulator = Simulator()
    traffic = _traffic(network, rate=0.1, stop_at=100)
    simulator.register(traffic)
    simulator.register(network)
    oracle = InvariantOracle(network, OracleConfig(mode="record",
                                                  journal=True))
    oracle.attach(simulator)
    simulator.run(200)
    assert oracle.violation_count == 0
    assert oracle.delivered_signatures
    return oracle


def test_duplicate_delivery_detected(mesh4):
    oracle = _delivered_packet(mesh4)
    from repro.network.packet import Packet

    packet = Packet(src_node=0, dst_node=3, src_router=0, dst_router=3,
                    length=1)
    port = mesh4.eject_port_for(3)
    mesh4.deliver(packet, 3, port, mesh4.now)       # first: fine
    mesh4.deliver(packet, 3, port, mesh4.now)       # second: duplicate
    assert families(oracle.violations) == {"duplicate_delivery"}


def test_misdelivery_detected(mesh4):
    oracle = _delivered_packet(mesh4)
    from repro.network.packet import Packet

    packet = Packet(src_node=0, dst_node=3, src_router=0, dst_router=3,
                    length=1)
    wrong_port = mesh4.eject_port_for(7)
    mesh4.deliver(packet, 7, wrong_port, mesh4.now)  # wrong NIC
    assert "misdelivery" in families(oracle.violations)


def test_journal_matches_stats_delivery_count(mesh4):
    oracle = _delivered_packet(mesh4)
    assert len(oracle.delivered_signatures) == mesh4.stats.packets_delivered


# ----------------------------------------------------------------------
# FSM families
# ----------------------------------------------------------------------
def test_fsm_context_detects_dd_without_pointer(mesh4_spin):
    simulate(mesh4_spin, 5, _traffic(mesh4_spin, stop_at=5))
    oracle = InvariantOracle(mesh4_spin, OracleConfig(mode="record"))
    oracle.check_now(cycle=mesh4_spin.now)
    controller = mesh4_spin.spin.controllers[0]
    controller.state = SpinState.DD
    controller.pointer = None
    controller.deadline = None
    assert families(oracle.check_now(cycle=mesh4_spin.now + 1)) == {
        "fsm_context"}


def test_fsm_transition_detects_off_to_move(mesh4_spin):
    oracle = InvariantOracle(mesh4_spin, OracleConfig(mode="record"))
    oracle.check_now(cycle=0)
    controller = mesh4_spin.spin.controllers[0]
    assert controller.state is SpinState.OFF
    controller.state = SpinState.MOVE
    controller.loop_path = (1, 2)     # plausible context so only the
    controller.deadline = 100         # transition itself is illegal
    assert families(oracle.check_now(cycle=1)) == {"fsm_transition"}


def test_frozen_vc_without_metadata_detected(mesh4_spin):
    craft_square_deadlock(mesh4_spin)
    oracle = InvariantOracle(mesh4_spin, OracleConfig(mode="record"))
    assert oracle.check_now() == []
    router, inport, vc = next(iter(mesh4_spin.occupied_vcs()))
    vc.frozen = True  # freeze_* fields left at their -1 defaults
    assert families(oracle.check_now()) == {"freeze_legality"}


def test_duplicate_freeze_token_detected(mesh4_spin):
    craft_square_deadlock(mesh4_spin)
    oracle = InvariantOracle(mesh4_spin, OracleConfig(mode="record"))
    assert oracle.check_now() == []
    occupied = list(mesh4_spin.occupied_vcs())[:2]
    for _, _, vc in occupied:
        vc.frozen = True
        vc.freeze_outport = 1
        vc.freeze_source = occupied[0][0].id
        vc.freeze_spin_cycle = mesh4_spin.now + 50
        vc.freeze_path_index = 1      # duplicated index within one token
    assert families(oracle.check_now()) == {"freeze_token_uniqueness"}


# ----------------------------------------------------------------------
# Environment gate and sweep wiring
# ----------------------------------------------------------------------
def test_simulate_point_env_gate_counts_violations(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "record")
    network = make_mesh_network()
    # corrupt before the run so the env-attached oracle must notice
    phantom_credit(network.routers[3])
    sim = SimulationConfig(warmup_cycles=10, measure_cycles=20,
                           drain_cycles=10)
    point = simulate_point(network, _traffic(network, stop_at=30), sim)
    assert point.invariant_violations > 0
    assert point.events["violation_credit_conservation"] > 0


def test_simulate_point_verify_flag_raises_on_corruption():
    network = make_mesh_network()
    phantom_credit(network.routers[3])
    sim = SimulationConfig(warmup_cycles=10, measure_cycles=20,
                           drain_cycles=10)
    with pytest.raises(InvariantViolation):
        simulate_point(network, _traffic(network, stop_at=30), sim,
                       verify=True)


def test_simulate_point_rejects_foreign_oracle():
    network = make_mesh_network()
    other = make_mesh_network()
    oracle = InvariantOracle(other)
    sim = SimulationConfig(warmup_cycles=5, measure_cycles=5,
                           drain_cycles=5)
    with pytest.raises(ConfigurationError):
        simulate_point(network, _traffic(network, stop_at=10), sim,
                       oracle=oracle)


def test_sweep_point_serializes_violations():
    point = SweepPoint(injection_rate=0.1, mean_latency=10.0,
                       p99_latency=20.0, throughput=0.1,
                       delivery_ratio=1.0, wedged=False, delivered=5,
                       invariant_violations=7)
    data = point.to_dict()
    assert data["invariant_violations"] == 7
    assert SweepPoint.from_dict(data) == point
    # documents absent in pre-oracle results files: defaults to 0
    del data["invariant_violations"]
    assert SweepPoint.from_dict(data).invariant_violations == 0


def test_invariant_catalog_names_are_documented():
    for name, description in INVARIANTS.items():
        assert name and description
