"""Unit tests for the SPIN framework: SM transport and contention rules."""

from repro.config import SpinParams
from repro.core.messages import (
    KillMoveMessage,
    MoveMessage,
    ProbeMessage,
    ProbeMoveMessage,
)
from repro.sim import create_engine
from repro.sim.engine import Simulator
from repro.sim.profile import PhaseProfiler
from repro.topology.mesh import SOUTH, WEST
from repro.topology.ring import CLOCKWISE

from tests.conftest import (
    craft_ring_deadlock,
    craft_square_deadlock,
    make_mesh_network,
    make_ring_network,
)


def framework_network(m=6, tdd=50):
    network = make_ring_network(m=m, spin=SpinParams(tdd=tdd))
    return network


class TestTransport:
    def test_sm_arrives_after_link_latency(self):
        network = framework_network()
        framework = network.spin
        probe = ProbeMessage(sender=0, send_cycle=0)
        framework.send_sm(0, CLOCKWISE, probe, now=0)
        framework._resolve_outbox(0)
        assert framework._arrivals[1], "1-cycle link: arrival next cycle"
        ((router, inport, sm),) = framework._arrivals[1]
        assert router == 1
        assert sm is probe

    def test_sm_traversals_counted_on_link(self):
        network = framework_network()
        framework = network.spin
        link = network.routers[0].out_links[CLOCKWISE]
        before = link.sm_cycles
        framework.send_sm(0, CLOCKWISE, ProbeMessage(0, 0), now=0)
        framework._resolve_outbox(0)
        assert link.sm_cycles == before + 1

    def test_sms_ignore_flit_occupancy(self):
        network = framework_network()
        framework = network.spin
        link = network.routers[0].out_links[CLOCKWISE]
        link.busy_until = 10_000  # saturated by flits
        framework.send_sm(0, CLOCKWISE, ProbeMessage(0, 0), now=0)
        framework._resolve_outbox(0)
        assert framework._arrivals[1]


class TestContention:
    def test_class_priority_wins(self):
        network = framework_network()
        framework = network.spin
        probe = ProbeMessage(sender=5, send_cycle=0)
        probe_move = ProbeMoveMessage(sender=1, send_cycle=0, path=(0,))
        framework.send_sm(0, CLOCKWISE, probe, now=0)
        framework.send_sm(0, CLOCKWISE, probe_move, now=0)
        framework._resolve_outbox(0)
        ((_, _, winner),) = framework._arrivals[1]
        assert winner is probe_move
        assert network.stats.events["probes_dropped_contention"] == 1

    def test_sender_priority_breaks_class_ties(self):
        network = framework_network()
        framework = network.spin
        low = ProbeMessage(sender=1, send_cycle=0)
        high = ProbeMessage(sender=4, send_cycle=0)
        framework.send_sm(0, CLOCKWISE, low, now=0)
        framework.send_sm(0, CLOCKWISE, high, now=0)
        framework._resolve_outbox(0)
        ((_, _, winner),) = framework._arrivals[1]
        assert winner is high

    def test_rotation_flips_the_winner(self):
        network = framework_network()
        framework = network.spin
        epoch = framework.params.epoch_length
        # After enough epochs, sender 1 outranks sender 4.
        cycle = epoch * 3  # priorities: (id + 3) % 6 -> 1 -> 4, 4 -> 1
        low = ProbeMessage(sender=4, send_cycle=cycle)
        high = ProbeMessage(sender=1, send_cycle=cycle)
        framework.send_sm(0, CLOCKWISE, low, now=cycle)
        framework.send_sm(0, CLOCKWISE, high, now=cycle)
        framework._resolve_outbox(cycle)
        ((_, _, winner),) = framework._arrivals[cycle + 1]
        assert winner is high

    def test_no_contention_on_distinct_links(self):
        network = framework_network()
        framework = network.spin
        framework.send_sm(0, CLOCKWISE, ProbeMessage(0, 0), now=0)
        framework.send_sm(1, CLOCKWISE, ProbeMessage(1, 0), now=0)
        framework._resolve_outbox(0)
        assert len(framework._arrivals[1]) == 2


class TestArrivalOrdering:
    def test_higher_class_processed_first(self):
        network = framework_network()
        framework = network.spin
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run(2)
        order = []
        controller = framework.controllers[2]
        original = controller.on_sm

        def spy(sm, inport, now):
            order.append(sm.kind)
            return original(sm, inport, now)

        controller.on_sm = spy
        framework._arrivals[2].extend([
            (2, 1, ProbeMessage(sender=0, send_cycle=0)),
            (2, 1, MoveMessage(sender=0, send_cycle=0, path=(0,),
                               spin_cycle=99)),
        ])
        framework.phase_control(2)
        assert order[:2] == ["move", "probe"]


class TestArrivalRule:
    """An SM arrival dirties the controller; it wakes the router's
    allocation only when a VC was frozen or thawed while it was handled."""

    def _asleep_on_the_square(self):
        # tdd far away: no controller sends anything on its own.
        network = make_mesh_network(side=4, vcs=1,
                                    spin=SpinParams(tdd=10_000))
        craft_square_deadlock(network)
        simulator = create_engine("fast")
        profiler = simulator.attach_profiler(PhaseProfiler())
        simulator.register(network)
        simulator.run(6)
        assert simulator.engine_path == "soa"
        before = profiler.counters["router_cycles_run"]
        simulator.run(4)
        assert profiler.counters["router_cycles_run"] == before, (
            "the four blocked routers should be asleep")
        return network, simulator, profiler.counters

    def test_probe_does_not_wake_but_move_and_kill_move_do(self):
        network, simulator, counters = self._asleep_on_the_square()
        framework = network.spin
        at = network.topology.router_at
        # (2,1) holds the packet that came in from the west and waits on
        # SOUTH; an outsider's probe reads that request and moves on.
        target, outsider = at(2, 1), at(3, 3)
        now = simulator.cycle
        framework._arrivals[now].append(
            (target, WEST, ProbeMessage(sender=outsider, send_cycle=now)))
        run, arrivals = counters["router_cycles_run"], counters.get(
            "sm_arrivals", 0)
        simulator.run(3)  # delivered, forwarded, delivered at the next hop
        assert counters["sm_arrivals"] >= arrivals + 3
        assert counters["router_cycles_run"] == run
        assert counters.get("routers_woken_by_control", 0) == 0
        assert framework.frozen_vc_count() == 0

        # A move freezes the VC: the router's allocation must run again.
        now = simulator.cycle
        framework._arrivals[now].append(
            (target, WEST, MoveMessage(sender=outsider, send_cycle=now,
                                       path=(SOUTH,), spin_cycle=now + 500)))
        simulator.run(1)
        assert framework.frozen_vc_count() == 1
        assert counters["routers_woken_by_control"] == 1
        assert counters["router_cycles_run"] == run + 1

        # A kill_move thaws it: again.
        framework._arrivals[now + 1].append(
            (target, WEST, KillMoveMessage(sender=outsider,
                                           send_cycle=now + 1,
                                           path=(SOUTH,))))
        simulator.run(1)
        assert framework.frozen_vc_count() == 0
        assert counters["routers_woken_by_control"] == 2
        assert counters["router_cycles_run"] == run + 2


class TestIntrospection:
    def test_frozen_count_and_pending_spins(self):
        network = framework_network(tdd=8)
        craft_ring_deadlock(network)
        sim = Simulator()
        sim.register(network)
        sim.run_until(lambda: network.spin.frozen_vc_count() > 0,
                      max_cycles=100)
        assert network.spin.frozen_vc_count() >= 1
        assert network.spin.executor.pending_spins() >= 1
        assert network.spin.controller_of(0) is network.spin.controllers[0]
