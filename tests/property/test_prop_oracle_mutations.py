"""Mutation-kill property tests: the oracle trips *exactly* the right alarm.

For each invariant family, a hypothesis-driven scenario runs real traffic
to a random point, takes a clean oracle baseline, applies one surgical
corruption of the live state (drop a credit, duplicate a flit, teleport a
packet, vanish one, forge freeze/FSM state, ...), and asserts that the
very next sweep reports the *intended* invariant family — and only that
family.  This pins both directions of oracle quality: sensitivity (the
corruption is detected) and specificity (nothing else cries wolf).
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import SpinParams
from repro.core.fsm import SpinState
from repro.sim.engine import Simulator
from repro.traffic.generator import PacketMix, SyntheticTraffic
from repro.traffic.patterns import make_pattern
from repro.verify.oracle import InvariantOracle, OracleConfig

from tests.conftest import make_mesh_network

SETTINGS = dict(max_examples=20, deadline=None)


def _loaded_network(seed: int, cycles: int, spin=None):
    """A mesh warmed up with real traffic, with packets still in flight."""
    network = make_mesh_network(side=4, vcs=2, spin=spin, seed=seed)
    traffic = SyntheticTraffic(
        network, make_pattern("uniform", 16), 0.30, seed=seed,
        stop_at=cycles, mix=PacketMix.single(1))
    simulator = Simulator()
    simulator.register(traffic)
    simulator.register(network)
    simulator.run(cycles)
    return network


def _baselined_oracle(network):
    """Record-mode oracle with a clean sweep already taken at `now`."""
    oracle = InvariantOracle(network, OracleConfig(mode="record"))
    baseline = oracle.check_now(network.now)
    assert baseline == [], [v.invariant for v in baseline]
    return oracle


def _families(violations):
    return {violation.invariant for violation in violations}


def _residents(network):
    """(router, vc) pairs for every occupied router VC."""
    out = []
    for router in network.routers:
        for _inport, vcs in router.all_inports():
            for vc in vcs:
                if vc.packet is not None:
                    out.append((router, vc))
    return out


def _idle_vc(network, exclude_router: int, adjacent_ok: bool):
    """An empty VC on some other router (optionally non-adjacent)."""
    neighbors = {
        link.dst for link in network.links.values()
        if link.src == exclude_router}
    for router in network.routers:
        if router.id == exclude_router:
            continue
        if not adjacent_ok and router.id in neighbors:
            continue
        for _inport, vcs in router.all_inports():
            for vc in vcs:
                if vc.packet is None and not vc.frozen:
                    return router, vc
    return None


def _plant(vc, packet, now: int) -> None:
    """Occupy an idle VC with consistent timing fields."""
    vc.packet = packet
    vc.head_arrival = now
    vc.tail_arrival = now + packet.length - 1
    vc.ready_at = now


class TestDatapathMutations:
    @given(seed=st.integers(0, 500), cycles=st.integers(40, 120),
           slot=st.integers(0, 63), which=st.integers(0, 15))
    @settings(**SETTINGS)
    def test_credit_drift_trips_credit_conservation(self, seed, cycles,
                                                    slot, which):
        network = _loaded_network(seed, cycles)
        oracle = _baselined_oracle(network)
        # Flip one VC's occupancy bit: a phantom credit on an empty VC, a
        # dropped one on an occupied VC.
        router = network.routers[which % 16]
        router.occupied ^= 1 << (slot % len(router._scan))
        found = oracle.check_now(network.now + 1)
        assert _families(found) == {"credit_conservation"}

    @given(seed=st.integers(0, 500), cycles=st.integers(40, 120),
           extra=st.integers(1, 7), index=st.integers(0, 63))
    @settings(**SETTINGS)
    def test_length_corruption_trips_vc_occupancy(self, seed, cycles,
                                                  extra, index):
        network = _loaded_network(seed, cycles)
        residents = _residents(network)
        assume(residents)
        oracle = _baselined_oracle(network)
        _router, vc = residents[index % len(residents)]
        vc.packet.length = network.config.buffer_depth + extra
        found = oracle.check_now(network.now + 1)
        assert _families(found) == {"vc_occupancy"}

    @given(seed=st.integers(0, 500), cycles=st.integers(40, 120),
           index=st.integers(0, 63))
    @settings(**SETTINGS)
    def test_duplicated_flit_trips_duplicate_packet(self, seed, cycles,
                                                    index):
        network = _loaded_network(seed, cycles)
        residents = _residents(network)
        assume(residents)
        src_router, src_vc = residents[index % len(residents)]
        spot = _idle_vc(network, src_router.id, adjacent_ok=True)
        assume(spot is not None)
        dst_router, dst_vc = spot
        oracle = _baselined_oracle(network)
        _plant(dst_vc, src_vc.packet, network.now)
        # Keep credits honest: only the dup.
        network.note_vc_reserved(dst_router, dst_vc)
        # +2, not +1: a consecutive census would key both copies by the
        # same uid and could *also* read as a teleport.
        found = oracle.check_now(network.now + 2)
        assert _families(found) == {"duplicate_packet"}

    @given(seed=st.integers(0, 500), cycles=st.integers(40, 120),
           index=st.integers(0, 63))
    @settings(**SETTINGS)
    def test_teleported_packet_trips_teleport(self, seed, cycles, index):
        network = _loaded_network(seed, cycles)
        residents = _residents(network)
        assume(residents)
        src_router, src_vc = residents[index % len(residents)]
        spot = _idle_vc(network, src_router.id, adjacent_ok=False)
        assume(spot is not None)
        dst_router, dst_vc = spot
        oracle = _baselined_oracle(network)
        packet = src_vc.packet
        src_vc.packet = None
        network.note_vc_released(src_router, src_vc)
        _plant(dst_vc, packet, network.now)
        network.note_vc_reserved(dst_router, dst_vc)
        # Consecutive census (+1) so the movement history check runs.
        found = oracle.check_now(network.now + 1)
        assert _families(found) == {"teleport"}

    @given(seed=st.integers(0, 500), cycles=st.integers(40, 120),
           index=st.integers(0, 63))
    @settings(**SETTINGS)
    def test_vanished_packet_trips_packet_conservation(self, seed, cycles,
                                                       index):
        network = _loaded_network(seed, cycles)
        residents = _residents(network)
        assume(residents)
        src_router, src_vc = residents[index % len(residents)]
        oracle = _baselined_oracle(network)
        src_vc.packet = None          # no delivery, no counted loss
        network.note_vc_released(src_router, src_vc)
        found = oracle.check_now(network.now + 2)
        assert _families(found) == {"packet_conservation"}

    @given(seed=st.integers(0, 500), cycles=st.integers(40, 120),
           index=st.integers(0, 63))
    @settings(**SETTINGS)
    def test_lost_packet_with_counted_loss_is_clean(self, seed, cycles,
                                                    index):
        """Control arm: the same removal *with* accounting stays silent."""
        network = _loaded_network(seed, cycles)
        residents = _residents(network)
        assume(residents)
        src_router, src_vc = residents[index % len(residents)]
        oracle = InvariantOracle(network, OracleConfig(mode="record"))
        # attach() installs the delivery/loss hooks that make a counted
        # loss visible to the conservation check.
        oracle.attach(Simulator())
        assert oracle.check_now(network.now) == []
        packet = src_vc.packet
        src_vc.packet = None
        network.note_vc_released(src_router, src_vc)
        network.stats.record_loss(packet, network.now)
        found = oracle.check_now(network.now + 2)
        assert found == []


class TestSpinStateMutations:
    @given(seed=st.integers(0, 500), cycles=st.integers(40, 120),
           index=st.integers(0, 63))
    @settings(**SETTINGS)
    def test_forged_freeze_trips_freeze_legality(self, seed, cycles, index):
        network = _loaded_network(seed, cycles, spin=SpinParams(tdd=5000))
        residents = _residents(network)
        assume(residents)
        oracle = _baselined_oracle(network)
        _router, vc = residents[index % len(residents)]
        vc.frozen = True              # metadata left at its -1 defaults
        found = oracle.check_now(network.now + 2)
        assert _families(found) == {"freeze_legality"}

    @given(seed=st.integers(0, 500), cycles=st.integers(40, 120),
           which=st.integers(0, 15))
    @settings(**SETTINGS)
    def test_contextless_dd_trips_fsm_context(self, seed, cycles, which):
        network = _loaded_network(seed, cycles, spin=SpinParams(tdd=5000))
        oracle = _baselined_oracle(network)
        controller = network.spin.controllers[which % 16]
        if controller.state is SpinState.DD:
            # Strip the context the DD state requires.
            controller.pointer = None
            controller.deadline = None
        else:
            assume(controller.state is SpinState.OFF)
            controller.state = SpinState.DD   # forged: no pointer/deadline
        found = oracle.check_now(network.now + 2)
        assert _families(found) == {"fsm_context"}

    @given(seed=st.integers(0, 500), cycles=st.integers(40, 120),
           which=st.integers(0, 15))
    @settings(**SETTINGS)
    def test_illegal_jump_trips_fsm_transition(self, seed, cycles, which):
        network = _loaded_network(seed, cycles, spin=SpinParams(tdd=5000))
        oracle = _baselined_oracle(network)
        idle = [controller for controller in network.spin.controllers
                if controller.state is SpinState.OFF]
        assume(idle)
        controller = idle[which % len(idle)]
        # OFF -> MOVE with *plausible* context, so only the transition
        # relation itself can object.
        controller.state = SpinState.MOVE
        controller.loop_path = [(controller.router.id, 0, 0)]
        controller.deadline = network.now + 100
        found = oracle.check_now(network.now + 1)   # consecutive
        assert _families(found) == {"fsm_transition"}
