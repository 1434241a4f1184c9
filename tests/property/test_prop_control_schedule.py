"""Scheduled controller ticks equal ticking every controller every cycle.

``SpinFramework.phase_control`` is the one SPIN control loop.  With
``scheduled`` off it ticks every controller every cycle; with it on it
ticks a controller only when an SM arrival or a VC event dirtied it or its
FSM due time has come.  Two identically built networks — same design, same
seeds, same traffic — run side by side under the reference cycle loop, one
with scheduling on.  After every cycle they must agree on every
controller's state, the SMs emitted that cycle (the outbox, in emission
order), the SMs in flight (the arrival queue) and the frozen VCs; the
skipped ticks must therefore all have been no-ops.

The datapath is the same reference code on both sides, so this is a
differential of the control plane alone; the engine parity matrix covers
the scheduled loop together with the sleeping datapath.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SpinParams
from repro.harness.configs import build_network
from repro.sim.engine import Simulator
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern

from tests.conftest import craft_square_deadlock, make_mesh_network
from tests.property.test_prop_allocate_scan import packet_key

#: 1-VC and 3-VC meshes and a small dragonfly; stock, FAvORS and UGAL
#: routing.
DESIGNS = (
    "mesh:minadaptive-spin-1vc", "mesh:minadaptive-spin-3vc",
    "mesh:favors-min-spin-1vc", "mesh:favors-nmin-spin-1vc",
    "dfly:minimal-spin-1vc", "dfly:ugal-spin-3vc",
    "dfly:favors-nmin-spin-1vc",
)


def sm_key(sm):
    """An SM as a comparable value: its class and every field."""
    return (type(sm).__name__,) + tuple(
        getattr(sm, name) for klass in reversed(type(sm).__mro__)
        for name in klass.__dict__.get("__slots__", ()))


class Side:
    """One network under the reference loop, with its SM emission log."""

    def __init__(self, network, traffic, scheduled):
        self.network = network
        self.framework = framework = network.spin
        framework.scheduled = scheduled
        self.sent = []
        self.ticks = 0
        resolve_outbox = framework._resolve_outbox

        def logged_resolve(now):
            # Everything emitted this cycle, in emission order (probe
            # forks go straight into the outbox, not through send_sm).
            self.sent.extend((router_id, outport, sm_key(sm))
                             for router_id, outport, sm in framework._outbox)
            resolve_outbox(now)

        framework._resolve_outbox = logged_resolve
        for controller in framework.controllers:
            controller.tick = self._counted(controller.tick)
        self.simulator = Simulator()
        if traffic is not None:
            self.simulator.register(traffic)
        self.simulator.register(network)

    def _counted(self, tick):
        def counted(now):
            self.ticks += 1
            return tick(now)

        return counted

    def step(self):
        self.sent.clear()
        self.simulator.step()

    def _controller(self, controller):
        vc = controller._pointed
        pointed = None
        if vc is not None and vc.packet is not None \
                and vc.packet.uid == controller.pointed_uid:
            pointed = packet_key(vc.packet)
        return (controller.state, controller.deadline, controller.pointer,
                controller.pointed_uid is None, pointed,
                controller.probe_inport, controller.probe_outport,
                controller.probe_vnet, controller.loop_path,
                controller.loop_delay, controller.spin_cycle,
                controller.probe_move_send_at, controller.is_deadlock,
                controller.latched_source, controller.probe_pending,
                controller.kill_retries)

    def snapshot(self):
        framework = self.framework
        frozen = sorted(
            (router.id, inport, vc.index, vc.freeze_source,
             vc.freeze_spin_cycle, vc.freeze_path_index)
            for router, inport, vc in self.network.occupied_vcs()
            if vc.frozen)
        return {
            "controllers": [self._controller(controller)
                            for controller in framework.controllers],
            "outbox": list(self.sent),
            "arrivals": {
                cycle: {router_id: [(inport, sm_key(sm))
                                    for inport, sm in batch]
                        for router_id, batch in buckets.items()}
                for cycle, buckets in framework._arrivals.items()},
            "pending_spins": framework.executor.pending_spins(),
            "frozen": frozen,
            "events": dict(self.network.stats.events),
            "delivered": self.network.stats.packets_delivered,
        }


def build_side(scheduled, design, seed, rate, tdd, stop_at):
    network = build_network(design, seed=seed, mesh_side=4,
                            dragonfly=(2, 4, 2), tdd=tdd)
    pattern = make_pattern("uniform", network.topology.num_nodes, seed)
    traffic = SyntheticTraffic(network, pattern, rate, seed=seed,
                               stop_at=stop_at)
    return Side(network, traffic, scheduled)


def run_side_by_side(scheduled, unscheduled, cycles):
    for cycle in range(cycles):
        scheduled.step()
        unscheduled.step()
        got, want = scheduled.snapshot(), unscheduled.snapshot()
        for field in want:
            assert got[field] == want[field], (
                f"{field} differs after cycle {cycle}")


@given(design=st.sampled_from(DESIGNS), seed=st.integers(0, 10_000),
       rate=st.floats(0.05, 0.6), tdd=st.sampled_from([4, 8, 32]))
@settings(max_examples=25, deadline=None)
def test_scheduled_loop_equals_tick_every_cycle(design, seed, rate, tdd):
    sides = [build_side(scheduled, design, seed, rate, tdd, stop_at=90)
             for scheduled in (True, False)]
    run_side_by_side(*sides, cycles=140)
    assert sides[1].network.stats.packets_injected > 0


def test_the_loaded_mesh_really_skips_and_really_probes():
    """The property is not vacuous: a saturated 1-VC mesh sends probes
    and the scheduled side skips at least a quarter of the other side's
    ticks even at tdd=8."""
    sides = [build_side(scheduled, "mesh:minadaptive-spin-1vc", seed=3,
                        rate=0.5, tdd=8, stop_at=200)
             for scheduled in (True, False)]
    run_side_by_side(*sides, cycles=260)
    scheduled, unscheduled = sides
    assert unscheduled.network.stats.events.get("probes_sent", 0) > 20
    assert 0 < scheduled.ticks < unscheduled.ticks * 3 // 4


#: Long enough for one initiator's move round trip to complete on the
#: planted square (the spin lands near cycle 250).
SPIN_CYCLES = 280


def _spin_side(scheduled, seed, rate):
    network = make_mesh_network(side=4, vcs=1, spin=SpinParams(tdd=8),
                                seed=seed)
    # Planted through the vc-less event, which dirties every controller.
    craft_square_deadlock(network)
    pattern = make_pattern("uniform", network.topology.num_nodes, 4)
    traffic = SyntheticTraffic(network, pattern, rate, seed=seed,
                               stop_at=80)
    return Side(network, traffic, scheduled)


@given(seed=st.integers(0, 10_000), rate=st.floats(0.0, 0.08))
@settings(max_examples=10, deadline=None)
def test_equal_through_a_spin_recovery(seed, rate):
    """Moves, freezes, the spin itself (which ticks everything) and the
    probe_move that follows it all happen at the same cycles."""
    sides = [_spin_side(scheduled, seed, rate) for scheduled in (True, False)]
    run_side_by_side(*sides, cycles=SPIN_CYCLES)


def test_the_spin_scenario_really_spins():
    sides = [_spin_side(scheduled, seed=5, rate=0.0)
             for scheduled in (True, False)]
    run_side_by_side(*sides, cycles=SPIN_CYCLES)
    assert sides[0].network.stats.events.get("spins", 0) >= 1
    assert sides[0].network.stats.packets_delivered == 4
    assert sides[0].ticks < sides[1].ticks
