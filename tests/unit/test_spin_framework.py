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


def landed(framework, cycle):
    """The SMs filed to arrive at ``cycle``, as (router, inport, sm)."""
    return [(router_id, inport, sm)
            for router_id, batch in framework._arrivals.get(cycle, {}).items()
            for inport, sm in batch]


def plant(framework, cycle, router_id, inport, sm):
    """File an SM to arrive at a router's inport at ``cycle``."""
    framework._arrivals.setdefault(cycle, {}).setdefault(
        router_id, []).append((inport, sm))


class TestTransport:
    def test_sm_arrives_after_link_latency(self):
        network = framework_network()
        framework = network.spin
        probe = ProbeMessage(sender=0, send_cycle=0)
        framework.send_sm(0, CLOCKWISE, probe, now=0)
        framework._resolve_outbox(0)
        assert landed(framework, 1), "1-cycle link: arrival next cycle"
        ((router, inport, sm),) = landed(framework, 1)
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
        assert landed(framework, 1)


class TestContention:
    def test_class_priority_wins(self):
        network = framework_network()
        framework = network.spin
        probe = ProbeMessage(sender=5, send_cycle=0)
        probe_move = ProbeMoveMessage(sender=1, send_cycle=0, path=(0,))
        framework.send_sm(0, CLOCKWISE, probe, now=0)
        framework.send_sm(0, CLOCKWISE, probe_move, now=0)
        framework._resolve_outbox(0)
        ((_, _, winner),) = landed(framework, 1)
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
        ((_, _, winner),) = landed(framework, 1)
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
        ((_, _, winner),) = landed(framework, cycle + 1)
        assert winner is high

    def test_no_contention_on_distinct_links(self):
        network = framework_network()
        framework = network.spin
        framework.send_sm(0, CLOCKWISE, ProbeMessage(0, 0), now=0)
        framework.send_sm(1, CLOCKWISE, ProbeMessage(1, 0), now=0)
        framework._resolve_outbox(0)
        assert len(landed(framework, 1)) == 2


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
        plant(framework, 2, 2, 1, ProbeMessage(sender=0, send_cycle=0))
        plant(framework, 2, 2, 1, MoveMessage(sender=0, send_cycle=0,
                                              path=(0,), spin_cycle=99))
        framework.phase_control(2)
        assert order[:2] == ["move", "probe"]

    def test_one_cycles_arrivals_are_handled_in_priority_order(self):
        """SMs sent in two different cycles land at one router in the same
        cycle: they are handled highest class first, then by the sender's
        rotating priority, then by inport.  Batches at different routers
        go in router-id order, whatever order they were filed in."""
        network = make_mesh_network(side=4, vcs=1, spin=SpinParams(tdd=8))
        framework = network.spin
        priority = framework.priority
        links = network.links
        target = network.topology.router_at(1, 1)
        other = target - 1
        # The target's four incoming links, highest inport first.
        incoming = sorted((key for key, link in links.items()
                           if link.dst == target),
                          key=lambda key: -links[key].dst_port)
        assert len(incoming) == 4
        # Rotation 8 of 16 routers: sender 5 now outranks sender 9.
        land = 8 * priority.epoch_length + 2
        assert (priority.dynamic_priority(5, land)
                > priority.dynamic_priority(9, land))
        probe_high = ProbeMessage(sender=1, send_cycle=land - 2)
        move = MoveMessage(sender=9, send_cycle=land - 2, path=(0,))
        probe_low = ProbeMessage(sender=1, send_cycle=land - 1)
        kill = KillMoveMessage(sender=5, send_cycle=land - 1, path=(0,))
        rival = ProbeMoveMessage(sender=3, send_cycle=land - 1, path=(0,))
        # The first two links take two cycles, the other two one.
        for key in incoming[:2]:
            links[key].latency = 2
        beside = next(key for key, link in links.items()
                      if link.dst == other)
        sends = {land - 2: [(incoming[0], probe_high), (incoming[1], move)],
                 land - 1: [(incoming[2], probe_low), (incoming[3], kill),
                            (beside, rival)]}
        for cycle, pairs in sends.items():
            for (router_id, outport), sm in pairs:
                framework.send_sm(router_id, outport, sm, cycle)
            framework._resolve_outbox(cycle)
        # Filed target first (and its probes first), handled the other way.
        assert list(framework._arrivals[land]) == [target, other]
        assert [sm for _, sm in framework._arrivals[land][target]] == [
            probe_high, move, probe_low, kill]
        handled = []
        for router_id in (target, other):
            def spy(sm, inport, now, router_id=router_id):
                handled.append((router_id, inport, sm))
                return False
            framework.controllers[router_id].on_sm = spy
        framework.phase_control(land)
        assert [(router_id, sm) for router_id, _, sm in handled] == [
            (other, rival), (target, kill), (target, move),
            (target, probe_low), (target, probe_high)]
        assert handled[3][1] < handled[4][1]


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
        plant(framework, now, target, WEST,
              ProbeMessage(sender=outsider, send_cycle=now))
        run, arrivals = counters["router_cycles_run"], counters.get(
            "sm_arrivals", 0)
        simulator.run(3)  # delivered, forwarded, delivered at the next hop
        assert counters["sm_arrivals"] >= arrivals + 3
        assert counters["router_cycles_run"] == run
        assert counters.get("routers_woken_by_control", 0) == 0
        assert framework.frozen_vc_count() == 0

        # A move freezes the VC: the router's allocation must run again.
        now = simulator.cycle
        plant(framework, now, target, WEST,
              MoveMessage(sender=outsider, send_cycle=now, path=(SOUTH,),
                          spin_cycle=now + 500))
        simulator.run(1)
        assert framework.frozen_vc_count() == 1
        assert counters["routers_woken_by_control"] == 1
        assert counters["router_cycles_run"] == run + 1

        # A kill_move thaws it: again.
        plant(framework, now + 1, target, WEST,
              KillMoveMessage(sender=outsider, send_cycle=now + 1,
                              path=(SOUTH,)))
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
