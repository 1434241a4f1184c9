"""Unit tests for the per-router SPIN controller (FSM and SM handlers)."""

import pytest

from repro.config import SpinParams
from repro.core.fsm import SpinState
from repro.core.messages import MoveMessage, ProbeMessage, ProbeMoveMessage
from repro.sim.engine import Simulator
from repro.topology.ring import CLOCKWISE, COUNTER_CLOCKWISE

from tests.conftest import craft_ring_deadlock, make_mesh_network, make_ring_network


def spin_network(m=6, tdd=8, **kwargs):
    network = make_ring_network(m=m, spin=SpinParams(tdd=tdd, **kwargs))
    return network


class TestDetectionCounter:
    def test_off_when_empty(self):
        network = spin_network()
        sim = Simulator()
        sim.register(network)
        sim.run(5)
        assert all(c.state is SpinState.OFF for c in network.spin.controllers)

    def test_dd_when_occupied(self):
        network = spin_network()
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        assert all(c.state is SpinState.DD for c in network.spin.controllers)
        assert all(c.pointer is not None for c in network.spin.controllers)

    def test_probe_sent_on_expiry(self):
        network = spin_network(tdd=5)
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(8)
        assert network.stats.events.get("probes_sent", 0) >= 1

    def test_no_probe_before_tdd(self):
        network = spin_network(tdd=50)
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(40)
        assert network.stats.events.get("probes_sent", 0) == 0

    def test_counter_resets_when_packet_moves(self):
        # Light traffic on a mesh: packets move well before tDD expires,
        # so no probes are ever sent.
        from repro.traffic.generator import SyntheticTraffic
        from repro.traffic.patterns import make_pattern

        network = make_mesh_network(side=4, vcs=2, spin=SpinParams(tdd=64))
        network.stats.open_window(0, None)
        traffic = SyntheticTraffic(network, make_pattern("uniform", 16),
                                   0.02, seed=5)
        sim = Simulator()
        sim.register(traffic)
        sim.register(network)
        sim.run(2000)
        assert network.stats.events.get("probes_sent", 0) == 0
        assert network.stats.events.get("spins", 0) == 0


class TestProbeRules:
    def test_probe_dropped_at_idle_input_port(self):
        network = spin_network()
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        controller = network.spin.controllers[2]
        # Probe arrives at the clockwise inport, which is empty (packets sit
        # at the counter-clockwise inports).
        probe = ProbeMessage(sender=0, send_cycle=0)
        controller.on_sm(probe, CLOCKWISE, now=2)
        assert network.stats.events.get("probes_dropped_idle_vc", 0) == 1

    def test_probe_forked_along_dependency(self):
        network = spin_network()
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(2)  # requests computed
        controller = network.spin.controllers[2]
        probe = ProbeMessage(sender=0, send_cycle=0)
        controller.on_sm(probe, COUNTER_CLOCKWISE, now=2)
        # Forwarded out of the clockwise port, path extended.
        sent = network.spin._outbox
        assert len(sent) == 1
        router_id, outport, sm = sent[0]
        assert router_id == 2
        assert outport == CLOCKWISE
        assert sm.path == (CLOCKWISE,)

    def test_own_probe_returning_starts_move(self):
        network = spin_network(m=5, tdd=6)
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(30)
        assert network.stats.events.get("moves_sent", 0) >= 1

    def test_strict_priority_drop(self):
        network = make_ring_network(
            m=6, spin=SpinParams(tdd=8, strict_priority_drop=True))
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(3)
        controller = network.spin.controllers[5]
        # Sender 0 has lower dynamic priority than router 5 in epoch 0.
        probe = ProbeMessage(sender=0, send_cycle=0)
        controller.on_sm(probe, COUNTER_CLOCKWISE, now=3)
        assert network.stats.events.get("probes_dropped_priority", 0) == 1


class TestMoveRules:
    def _deadlocked_network(self):
        network = spin_network(m=6, tdd=8)
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(3)
        return network

    def test_move_freezes_matching_vc(self):
        network = self._deadlocked_network()
        controller = network.spin.controllers[1]
        move = MoveMessage(sender=0, send_cycle=3, path=(CLOCKWISE, CLOCKWISE),
                           spin_cycle=40, hop_index=1)
        controller.on_sm(move, COUNTER_CLOCKWISE, now=3)
        vc = network.routers[1].inports[COUNTER_CLOCKWISE][0]
        assert vc.frozen
        assert vc.freeze_source == 0
        assert vc.freeze_spin_cycle == 40
        assert controller.state is SpinState.FROZEN
        assert controller.is_deadlock
        assert controller.latched_source == 0

    def test_move_dropped_without_dependency(self):
        network = self._deadlocked_network()
        controller = network.spin.controllers[1]
        # No packet at router 1 wants the counter-clockwise port.
        move = MoveMessage(sender=0, send_cycle=3,
                           path=(COUNTER_CLOCKWISE,), spin_cycle=40)
        controller.on_sm(move, COUNTER_CLOCKWISE, now=3)
        assert network.stats.events.get("moves_dropped_no_dependency", 0) == 1
        assert not controller.is_deadlock

    def test_second_move_source_mismatch_dropped(self):
        network = self._deadlocked_network()
        controller = network.spin.controllers[1]
        first = MoveMessage(sender=0, send_cycle=3, path=(CLOCKWISE,),
                            spin_cycle=40, hop_index=1)
        controller.on_sm(first, COUNTER_CLOCKWISE, now=3)
        rival = MoveMessage(sender=3, send_cycle=3, path=(CLOCKWISE,),
                            spin_cycle=44, hop_index=1)
        controller.on_sm(rival, COUNTER_CLOCKWISE, now=3)
        assert network.stats.events.get("moves_dropped_busy", 0) == 1
        vc = network.routers[1].inports[COUNTER_CLOCKWISE][0]
        assert vc.freeze_source == 0  # still the first recovery

    def test_kill_move_unfreezes(self):
        from repro.core.messages import KillMoveMessage

        network = self._deadlocked_network()
        controller = network.spin.controllers[1]
        move = MoveMessage(sender=0, send_cycle=3, path=(CLOCKWISE,),
                           spin_cycle=40, hop_index=1)
        controller.on_sm(move, COUNTER_CLOCKWISE, now=3)
        kill = KillMoveMessage(sender=0, send_cycle=5, path=(CLOCKWISE,),
                               hop_index=1)
        controller.on_sm(kill, COUNTER_CLOCKWISE, now=5)
        vc = network.routers[1].inports[COUNTER_CLOCKWISE][0]
        assert not vc.frozen
        assert not controller.is_deadlock
        assert controller.state is SpinState.DD

    def test_kill_move_source_mismatch_dropped(self):
        from repro.core.messages import KillMoveMessage

        network = self._deadlocked_network()
        controller = network.spin.controllers[1]
        move = MoveMessage(sender=0, send_cycle=3, path=(CLOCKWISE,),
                           spin_cycle=40, hop_index=1)
        controller.on_sm(move, COUNTER_CLOCKWISE, now=3)
        kill = KillMoveMessage(sender=2, send_cycle=5, path=(CLOCKWISE,),
                               hop_index=1)
        controller.on_sm(kill, COUNTER_CLOCKWISE, now=5)
        vc = network.routers[1].inports[COUNTER_CLOCKWISE][0]
        assert vc.frozen  # rival kill must not cancel this freeze
        assert network.stats.events.get("kill_moves_dropped_busy", 0) == 1


class TestInitiatorTimeouts:
    def test_move_timeout_sends_kill(self):
        network = spin_network(m=6, tdd=8)
        craft_ring_deadlock(network)
        controller = network.spin.controllers[0]
        sim = Simulator()
        sim.register(network)
        sim.run(3)
        # Force an initiator context whose move will never return.
        controller.state = SpinState.MOVE
        controller.loop_path = (CLOCKWISE,) * 5
        controller.loop_delay = 6
        controller.probe_inport = COUNTER_CLOCKWISE
        controller.probe_outport = CLOCKWISE
        controller.spin_cycle = 100
        controller.deadline = 4
        sim.run(3)
        assert controller.state in (SpinState.KILL_MOVE, SpinState.DD)
        assert network.stats.events.get("kill_moves_sent", 0) >= 1


@pytest.mark.parametrize("message, expected_state, other_state", [
    (MoveMessage, SpinState.MOVE, SpinState.PROBE_MOVE),
    (ProbeMoveMessage, SpinState.PROBE_MOVE, SpinState.MOVE),
], ids=["move", "probe_move"])
class TestMoveFamily:
    """move and probe_move share one rule (paper Sec. IV-B4): every
    outcome counts under its own kind's ``<kind>s_<outcome>`` name."""

    @staticmethod
    def _deadlocked_network():
        network = spin_network(m=6, tdd=8)
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(3)
        return network

    @staticmethod
    def _assert_counted(network, message, outcome):
        events = network.stats.events
        kind = message.kind
        other = "probe_move" if kind == "move" else "move"
        assert events.get(f"{kind}s_{outcome}", 0) == 1
        assert not any(name.startswith(f"{other}s_") for name in events)

    def test_dropped_busy(self, message, expected_state, other_state):
        network = self._deadlocked_network()
        controller = network.spin.controllers[1]
        controller.on_sm(message(sender=0, send_cycle=3, path=(CLOCKWISE,),
                                 spin_cycle=40, hop_index=1),
                         COUNTER_CLOCKWISE, now=3)
        controller.on_sm(message(sender=3, send_cycle=3, path=(CLOCKWISE,),
                                 spin_cycle=44, hop_index=1),
                         COUNTER_CLOCKWISE, now=3)
        self._assert_counted(network, message, "dropped_busy")
        vc = network.routers[1].inports[COUNTER_CLOCKWISE][0]
        assert vc.freeze_source == 0

    def test_dropped_priority(self, message, expected_state, other_state):
        network = self._deadlocked_network()
        controller = network.spin.controllers[5]
        # An active initiator yields only to a rival that outranks it;
        # sender 0 ranks below router 5 in epoch 0.
        controller.state = SpinState.KILL_MOVE
        controller.on_sm(message(sender=0, send_cycle=3, path=(CLOCKWISE,),
                                 spin_cycle=40, hop_index=1),
                         COUNTER_CLOCKWISE, now=3)
        self._assert_counted(network, message, "dropped_priority")
        assert not network.routers[5].inports[COUNTER_CLOCKWISE][0].frozen

    def test_dropped_malformed(self, message, expected_state, other_state):
        network = self._deadlocked_network()
        controller = network.spin.controllers[1]
        controller.on_sm(message(sender=0, send_cycle=3, path=(),
                                 spin_cycle=40, hop_index=1),
                         COUNTER_CLOCKWISE, now=3)
        self._assert_counted(network, message, "dropped_malformed")
        assert not controller.is_deadlock

    def test_dropped_no_dependency(self, message, expected_state,
                                   other_state):
        network = self._deadlocked_network()
        controller = network.spin.controllers[1]
        controller.on_sm(message(sender=0, send_cycle=3,
                                 path=(COUNTER_CLOCKWISE,), spin_cycle=40),
                         COUNTER_CLOCKWISE, now=3)
        self._assert_counted(network, message, "dropped_no_dependency")
        assert not controller.is_deadlock

    def _own_initiator(self, state):
        network = self._deadlocked_network()
        controller = network.spin.controllers[0]
        controller.state = state
        controller.loop_path = (CLOCKWISE,) * 5
        controller.loop_delay = 6
        controller.probe_inport = COUNTER_CLOCKWISE
        controller.probe_outport = CLOCKWISE
        controller.spin_cycle = 40
        controller.deadline = 100
        return network, controller

    def test_stale(self, message, expected_state, other_state):
        # The initiator waits for the *other* kind: its own SM of this
        # kind coming home is stale, even with a matching spin cycle.
        network, controller = self._own_initiator(other_state)
        controller.on_sm(message(sender=0, send_cycle=3, path=(),
                                 spin_cycle=40, hop_index=6),
                         COUNTER_CLOCKWISE, now=3)
        self._assert_counted(network, message, "stale")
        assert controller.state is other_state

    def test_returned(self, message, expected_state, other_state):
        network, controller = self._own_initiator(expected_state)
        controller.on_sm(message(sender=0, send_cycle=3, path=(),
                                 spin_cycle=40, hop_index=6),
                         COUNTER_CLOCKWISE, now=3)
        self._assert_counted(network, message, "returned")
        vc = network.routers[0].inports[COUNTER_CLOCKWISE][0]
        assert vc.frozen
        assert vc.freeze_source == 0
        assert vc.freeze_path_index == 0
        assert controller.state is SpinState.FORWARD_PROGRESS
        assert controller.deadline == 40
        assert controller.is_deadlock and controller.latched_source == 0
