"""The mask-driven allocation walk and the object path's sleep equal an
exhaustive scan.

``Router.allocate`` walks the set bits of its occupancy mask
(``Router.occupied``) in ``all_inports()`` order.  ``Network.phase_allocate``
skips a router until its ``wake``: the earliest ``ready_at`` of its
unfrozen VCs once a walk found none of them ready, lowered by every packet
that arrives and dropped by any freeze or thaw.  ``Network.phase_inject``
visits only backlogged NICs and skips one until its ``wake``: when its
inject port or a VC it may use frees, or a packet is queued.  The reference
kept *here* — and nowhere in the product — calls every router and every
backlogged NIC every cycle and visits every VC slot, the way the datapath
did before the walk was bounded and the object path slept.

Two identically built networks, one on each, get the same traffic and the
same perturbations (frozen VCs, heads that are not ready yet, busy input
ports, packets planted through ``Network.plant_packet``, a SPIN recovery
that moves packets through ``SpinExecutor``), and perturbations aimed at
what sleeps: a freeze and a later thaw at a sleeping router, a plant whose
``ready_at`` is before a sleeping router's wake time, a packet of another
vnet queued at a sleeping NIC, and a blocked head — a ready packet whose
permitted downstream VCs are all occupied — whose blocker is dropped the
way ``FaultInjector`` drops a packet (no grant frees the VC, so only the
release event can wake the blocked router).  After every cycle they must agree
on the ``decide`` call sequence (the request set), the per-router grant
counts, every ``_rr`` pointer, the whole datapath state, the SPIN
controllers and the routing RNG state; and the bounded side must pass the
oracle's ``credit_conservation`` check, which audits the mask and the
wake times.

The same harness holds the ``fast`` engine to the ``reference`` one while
packets are planted mid-run or blockers dropped, and while the centralized
and proactive planes spin a planted ring through ``Network.rotate``: a
plant, a drop or a spin reaches the SoA core's schedule, sleeping routers
and the SPIN schedule only through its per-VC events.
"""

import functools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SpinParams
from repro.core.centralized import CentralizedSpinPlane
from repro.core.proactive import ProactiveSpinPlane
from repro.harness.configs import build_network
from repro.network.network import Network
from repro.network.packet import Packet
from repro.network.router import is_ejection_port
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim import create_engine
from repro.sim.engine import Simulator
from repro.topology.mesh import MeshTopology
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern
from repro.verify.invariants import check_credit_conservation

from tests.conftest import craft_square_deadlock, make_mesh_network

DESIGNS = (
    "mesh:westfirst-2vc", "mesh:escapevc-2vc", "mesh:staticbubble-2vc",
    "mesh:favors-nmin-spin-1vc", "mesh:minadaptive-spin-2vc",
    "dfly:ugal-spin-3vc", "dfly:ugal-dally-3vc", "dfly:minimal-spin-1vc",
    "dfly:favors-nmin-spin-1vc",
)


# ----------------------------------------------------------------------
# The exhaustive reference
# ----------------------------------------------------------------------
def exhaustive_allocate(router, now, grants_log):
    """One allocation cycle that looks at every VC slot of the router."""
    routing = router.network.routing
    requests = {}
    for inport, vcs in router.all_inports():
        port_free = now > router.port_busy[inport]
        for vc in vcs:
            packet = vc.packet
            if packet is None or vc.frozen or now < vc.ready_at:
                continue
            outport = routing.decide(router, inport, packet, now)
            if outport is None:
                continue
            if port_free:
                requests.setdefault(outport, []).append(vc)

    grants = 0
    granted_inports = set()
    for outport in sorted(requests):
        if is_ejection_port(outport):
            if now <= router.eject_busy[outport]:
                continue
        elif not router.out_links[outport].is_free(now):
            continue
        viable = []
        for vc in requests[outport]:
            if vc.inport in granted_inports:
                continue
            if is_ejection_port(outport):
                viable.append((vc, None))
            else:
                dvc = routing.pick_downstream_vc(router, vc.packet, outport,
                                                 now)
                if dvc is not None:
                    viable.append((vc, dvc))
        if not viable:
            continue
        # Round robin: the first (inport, index) at or after the pointer.
        viable.sort(key=lambda pair: (pair[0].inport, pair[0].index))
        keys = [vc.inport * 64 + vc.index for vc, _ in viable]
        pointer = router._rr.get(outport, 0)
        chosen = next((i for i, key in enumerate(keys) if key >= pointer), 0)
        winner, dvc = viable[chosen]
        router._rr[outport] = keys[chosen] + 1
        granted_inports.add(winner.inport)
        if is_ejection_port(outport):
            router._grant_ejection(winner, outport, now)
        else:
            router._grant_network(winner, dvc, outport, now)
        grants += 1
    if grants:
        grants_log[router.id] = grants


def exhaustive_phase_allocate(network, grants_log, cycle):
    """Call every router, occupied or not, from the rotating start."""
    routers = network.routers
    count = len(routers)
    offset = network._allocation_offset
    for i in range(count):
        exhaustive_allocate(routers[(i + offset) % count], cycle, grants_log)
    network._allocation_offset = (offset + 1) % count


def exhaustive_phase_inject(network, cycle):
    """Try every NIC that holds a queued packet, in node order."""
    for nic in network.nics:
        if any(nic.queues):
            nic.try_inject(cycle)


# ----------------------------------------------------------------------
# Side-by-side harness
# ----------------------------------------------------------------------
def packet_key(packet):
    """Identity of a packet that does not depend on the global uid."""
    return (packet.src_node, packet.dst_node, packet.create_cycle,
            packet.length, packet.vnet)


class Side:
    """One network with its loop, its decide log and its grant log.

    A side on a named ``engine`` logs neither: an instance-level ``decide``
    patch would send ``fast`` to the reference schedule.
    """

    def __init__(self, network, traffics, exhaustive, engine=None):
        self.network = network
        self.exhaustive = exhaustive
        self.decides = []
        self.grants = {}
        self.thaw = []  # (cycle, vc) frozen by a perturbation
        self.landed = Counter()  # perturbation kind -> times it found a target
        if engine is None:
            self._log_calls(exhaustive)
        self.simulator = create_engine(engine) if engine else Simulator()
        for traffic in traffics:
            self.simulator.register(traffic)
        self.simulator.register(network)

    def _log_calls(self, exhaustive):
        network = self.network
        routing = network.routing
        decide = routing.decide

        def logged_decide(router, inport, packet, now):
            outport = decide(router, inport, packet, now)
            self.decides.append(
                (router.id, inport, packet_key(packet), outport))
            return outport

        routing.decide = logged_decide
        if exhaustive:
            network.phase_allocate = functools.partial(
                exhaustive_phase_allocate, network, self.grants)
            network.phase_inject = functools.partial(
                exhaustive_phase_inject, network)
        else:
            for router in network.routers:
                router.allocate = self._logged_allocate(router)

    def _logged_allocate(self, router):
        allocate = router.allocate

        def logged(now):
            grants = allocate(now)
            if grants:
                self.grants[router.id] = grants
            return grants

        return logged

    def step(self):
        self.decides.clear()
        self.grants.clear()
        now = self.simulator.cycle
        for due, vc in self.thaw:
            if due == now and vc.frozen:
                vc.clear_freeze()
        self.simulator.step()

    def snapshot(self):
        network = self.network
        vcs = {}
        for router in network.routers:
            held = 0
            for inport, row in router.all_inports():
                for vc in row:
                    packet = vc.packet
                    if packet is not None:
                        held += 1
                        vcs[(router.id, inport, vc.index)] = (
                            packet_key(packet), vc.ready_at, vc.frozen,
                            packet.current_request, packet.hops,
                            packet.misroutes, packet.phase)
            # The premise of the bounded walk.
            assert router.active_vcs == held
        if not self.exhaustive:
            assert list(check_credit_conservation(
                network, self.simulator.cycle)) == []
        spin = network.spin
        stats = network.stats
        return {
            "decides": list(self.decides),
            "grants": dict(self.grants),
            "vcs": vcs,
            "rr": [dict(router._rr) for router in network.routers],
            "port_busy": [dict(router.port_busy)
                          for router in network.routers],
            "eject_busy": [dict(router.eject_busy)
                           for router in network.routers],
            "links": {key: link.busy_until
                      for key, link in network.links.items()},
            "queues": [[packet_key(p) for p in queue]
                       for nic in network.nics for queue in nic.queues],
            "stats": (stats.packets_created, stats.packets_injected,
                      stats.packets_delivered, dict(stats.events)),
            "offset": network._allocation_offset,
            "spin": spin and [
                (c.state, c.deadline, c.pointer, c.spin_cycle, c.loop_path)
                for c in spin.controllers],
            "rng": network.routing.rng._random.getstate(),
        }


def build_side(exhaustive, design, seed, rate, num_vnets, stop_at,
               engine=None):
    network = build_network(design, seed=seed, mesh_side=4,
                            dragonfly=(2, 4, 2), num_vnets=num_vnets, tdd=8)
    pattern = make_pattern("uniform", network.topology.num_nodes, 4)
    traffics = [
        SyntheticTraffic(network, pattern, rate / num_vnets,
                         seed=seed + vnet, vnet=vnet, stop_at=stop_at)
        for vnet in range(num_vnets)
    ]
    return Side(network, traffics, exhaustive, engine)


def blocked_heads(network, now):
    """Per ready, unfrozen head that requests a network port whose
    permitted downstream VCs are all occupied, the unfrozen occupants of
    those VCs (heads whose blockers are all frozen are left out)."""
    routing = network.routing
    found = []
    for router in network.routers:
        for vc in router._scan:
            packet = vc.packet
            if (packet is None or vc.frozen or now < vc.ready_at
                    or packet.current_request not in router.out_links):
                continue
            permitted = routing.permitted_vcs(packet, router,
                                              packet.current_request)
            if all(dvc.packet is not None for dvc in permitted):
                blockers = [dvc for dvc in permitted if not dvc.frozen]
                if blockers:
                    found.append(blockers)
    return found


def perturb(side, guide, kind, a, b):
    """Apply one perturbation; the target is picked from the state, which
    is the same on both sides as long as they agree — or, for what
    sleeps, from the ``guide`` side's routers and NICs."""
    network = side.network
    now = side.simulator.cycle
    routers = network.routers
    router = routers[a % len(routers)]
    if kind in ("freeze_sleeping", "plant_early"):
        asleep = [r for r in guide.network.routers
                  if r.occupied and r.wake > now + (kind == "plant_early")]
        if not asleep:
            return
        sleeper = asleep[a % len(asleep)]
        router = routers[sleeper.id]
    if kind == "busy_port":
        ports = sorted(router.port_busy)
        port = ports[b % len(ports)]
        router.port_busy[port] = max(router.port_busy[port], now + 1 + b % 4)
    elif kind in ("freeze", "freeze_sleeping"):
        if network.spin is not None:
            return  # leave freezing to the SPIN control plane there
        held = [vc for _, row in router.all_inports() for vc in row
                if vc.packet is not None and not vc.frozen]
        if held:
            vc = held[b % len(held)]
            vc.freeze(outport=0, source=router.id, spin_cycle=now + 5,
                      path_index=0)
            # A sleeping router's VC thaws once its head is ready.
            due = (min(vc.ready_at, now + 8) if kind == "freeze_sleeping"
                   else now + 1)
            side.thaw.append((max(due, now + 1) + b % 6, vc))
            side.landed[kind] += 1
    elif kind == "enqueue_sleeping":
        asleep = [nic.node for nic in guide.network.nics
                  if nic.wake > now and nic.backlog()]
        if not asleep:
            return
        nic = network.nics[asleep[a % len(asleep)]]
        head = next(queue[0] for queue in nic.queues if queue)
        topology = network.topology
        dst = (nic.node + 1 + b % (topology.num_nodes - 1)) % topology.num_nodes
        packet = Packet(src_node=nic.node, dst_node=dst,
                        src_router=nic.router_id,
                        dst_router=topology.router_of_node(dst),
                        length=1 + b % 5,
                        vnet=(head.vnet + 1) % len(nic.queues),
                        create_cycle=now)
        network.stats.record_creation(packet, now)
        nic.enqueue(packet)
        side.landed[kind] += 1
    elif kind == "free_blocked":
        blocked = blocked_heads(network, now)
        if not blocked:
            return
        blockers = blocked[(a + b) % len(blocked)]
        vc = blockers[b % len(blockers)]
        # FaultInjector._drop_packet: the release fires the per-VC event.
        packet = vc.release(now)
        network.note_vc_released(routers[vc.router], vc)
        network.stats.record_loss(packet, now)
        side.landed[kind] += 1
    else:  # "plant" / "plant_late" / "plant_early"
        idle = [vc for port in sorted(router.inports)
                for vc in router.inports[port] if vc.is_idle(now)]
        if not idle:
            return
        vc = idle[b % len(idle)]
        dst_router = (router.id + 1 + b % (len(routers) - 1)) % len(routers)
        if kind == "plant_early":
            # Ready before the router's wake time: the plant must wake it.
            # (A router whose VCs are all frozen sleeps until a thaw.)
            ready_at = now + b % min(sleeper.wake - now, 8)
        else:
            ready_at = now + 3 if kind == "plant_late" else now
        network.plant_packet(
            router.id, vc.inport, dst_router, vnet=vc.vnet,
            vc_index=vc.index % network.config.vcs_per_vnet,
            length=1 + b % 5, now=now, ready_at=ready_at)
        side.landed[kind] += 1


def run_side_by_side(side, reference, cycles, perturbations=()):
    by_cycle = {}
    for cycle, kind, a, b in perturbations:
        by_cycle.setdefault(cycle, []).append((kind, a, b))
    for cycle in range(cycles):
        for kind, a, b in by_cycle.get(cycle, ()):
            # The reference first: the guide's sleep state is the one
            # before the perturbation on both sides.
            perturb(reference, side, kind, a, b)
            perturb(side, side, kind, a, b)
        side.step()
        reference.step()
        got, want = side.snapshot(), reference.snapshot()
        for field in want:
            assert got[field] == want[field], (
                f"{field} differs after cycle {cycle}")


PERTURBATIONS = st.lists(
    st.tuples(st.integers(0, 59),
              st.sampled_from(["busy_port", "freeze", "plant", "plant_late",
                               "freeze_sleeping", "plant_early",
                               "enqueue_sleeping", "free_blocked"]),
              st.integers(0, 1000), st.integers(0, 1000)),
    max_size=12)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(design=st.sampled_from(DESIGNS), seed=st.integers(0, 10_000),
       rate=st.floats(0.05, 0.7), num_vnets=st.sampled_from([1, 2]),
       perturbations=PERTURBATIONS)
@settings(max_examples=30, deadline=None)
def test_bounded_walk_equals_exhaustive_scan(design, seed, rate, num_vnets,
                                             perturbations):
    sides = [build_side(exhaustive, design, seed, rate, num_vnets, stop_at=45)
             for exhaustive in (False, True)]
    run_side_by_side(*sides, cycles=60, perturbations=perturbations)
    assert sides[0].network.stats.packets_injected > 0


#: The designs the fast engine runs on its SoA core (with and without SPIN).
SOA_DESIGNS = ("mesh:minadaptive-spin-1vc", "mesh:minadaptive-spin-2vc",
               "mesh:minadaptive-nospin-1vc")

PLANTS = st.lists(
    st.tuples(st.integers(0, 59),
              st.sampled_from(["plant", "plant_late", "free_blocked"]),
              st.integers(0, 1000), st.integers(0, 1000)),
    min_size=1, max_size=12)


@given(design=st.sampled_from(SOA_DESIGNS), seed=st.integers(0, 10_000),
       rate=st.floats(0.0, 0.5), plants=PLANTS)
@settings(max_examples=25, deadline=None)
def test_mid_run_plants_keep_fast_equal_to_reference(design, seed, rate,
                                                     plants):
    sides = [build_side(False, design, seed, rate, num_vnets=1, stop_at=45,
                        engine=engine)
             for engine in ("fast", "reference")]
    run_side_by_side(*sides, cycles=60, perturbations=plants)
    assert sides[0].simulator.engine_path == "soa"


def test_every_perturbation_kind_lands():
    """The perturbations are not vacuous: on a loaded fabric each kind
    finds a target, and the two sides still agree."""
    perturbations = [
        (cycle, kind, 3 * cycle + offset, 7 * cycle)
        for cycle in range(10, 40, 3)
        for offset, kind in enumerate(
            ["busy_port", "freeze", "plant", "plant_late"])
    ]
    sides = [build_side(exhaustive, "mesh:westfirst-2vc", seed=3, rate=0.5,
                        num_vnets=1, stop_at=45)
             for exhaustive in (False, True)]
    run_side_by_side(*sides, cycles=60, perturbations=perturbations)
    bounded = sides[0]
    assert len(bounded.thaw) >= 3  # VCs were frozen, then thawed
    assert not any(vc.frozen for _, vc in bounded.thaw)
    stats = bounded.network.stats
    planted = stats.packets_created - sum(
        nic.packets_created for nic in bounded.network.nics)
    assert planted >= 10


def test_every_sleep_perturbation_lands():
    """The perturbations aimed at what sleeps find sleeping routers and
    NICs (a moderate load leaves routers whose packets are all still
    arriving), and the two sides still agree.  Blocked heads need a 1-VC
    mesh past saturation; a dropped blocker lands on the object path and
    on the SoA core, whose blocked routers sleep until that release."""
    kinds = ["freeze_sleeping", "plant_early", "enqueue_sleeping"]
    perturbations = [
        (cycle, kind, 3 * cycle + offset, 7 * cycle)
        for cycle in range(10, 40, 3)
        for offset, kind in enumerate(kinds)
    ]
    sides = [build_side(exhaustive, "mesh:westfirst-2vc", seed=3, rate=0.2,
                        num_vnets=2, stop_at=45)
             for exhaustive in (False, True)]
    run_side_by_side(*sides, cycles=60, perturbations=perturbations)
    bounded = sides[0]
    for kind in kinds:
        assert bounded.landed[kind] >= 3, bounded.landed
    assert not any(vc.frozen for _, vc in bounded.thaw)

    drops = [(cycle, "free_blocked", cycle, 5 * cycle)
             for cycle in range(10, 40, 3)]
    for pair in (((False, None), (True, None)),
                 ((False, "fast"), (False, "reference"))):
        sides = [build_side(exhaustive, "mesh:minadaptive-spin-1vc", seed=3,
                            rate=0.5, num_vnets=1, stop_at=45, engine=engine)
                 for exhaustive, engine in pair]
        run_side_by_side(*sides, cycles=60, perturbations=drops)
        assert sides[0].landed["free_blocked"] >= 3, sides[0].landed
    assert sides[0].simulator.engine_path == "soa"


#: Long enough for the rotating priority to let one initiator's move round
#: trip complete on the planted square (the spin lands near cycle 250).
SPIN_CYCLES = 280


def _spin_side(exhaustive, seed, rate):
    network = make_mesh_network(side=4, vcs=1, spin=SpinParams(tdd=8),
                                seed=seed)
    craft_square_deadlock(network)
    pattern = make_pattern("uniform", network.topology.num_nodes, 4)
    traffic = SyntheticTraffic(network, pattern, rate, seed=seed,
                               stop_at=80)
    return Side(network, [traffic], exhaustive)


@given(seed=st.integers(0, 10_000), rate=st.floats(0.0, 0.08))
@settings(max_examples=10, deadline=None)
def test_equal_through_a_spin_recovery(seed, rate):
    """A planted square deadlock is recovered by a synchronized spin: the
    executor moves packets without going through ``allocate``."""
    sides = [_spin_side(exhaustive, seed, rate)
             for exhaustive in (False, True)]
    run_side_by_side(*sides, cycles=SPIN_CYCLES)


def test_the_spin_scenario_really_spins():
    sides = [_spin_side(exhaustive, seed=5, rate=0.0)
             for exhaustive in (False, True)]
    run_side_by_side(*sides, cycles=SPIN_CYCLES)
    assert sides[0].network.stats.events.get("spins", 0) >= 1
    assert sides[0].network.stats.packets_delivered == 4


#: Long enough for either plane to spin the planted square and for the
#: traffic that queued behind it to drain.
PLANE_CYCLES = 200


def _plane_side(engine, plane, seed, rate):
    control = (CentralizedSpinPlane(check_period=8) if plane == "centralized"
               else ProactiveSpinPlane(stall_threshold=16, period=8))
    network = Network(MeshTopology(4, 4), NetworkConfig(vcs_per_vnet=1),
                      MinimalAdaptiveRouting(seed),
                      control_planes=(control,), seed=seed)
    craft_square_deadlock(network)
    pattern = make_pattern("uniform", network.topology.num_nodes, 4)
    traffic = SyntheticTraffic(network, pattern, rate, seed=seed,
                               stop_at=80)
    return Side(network, [traffic], False, engine)


@given(plane=st.sampled_from(["centralized", "proactive"]),
       seed=st.integers(0, 10_000), rate=st.floats(0.0, 0.08))
@settings(max_examples=10, deadline=None)
def test_fast_equals_reference_through_plane_spins(plane, seed, rate):
    """The centralized and proactive planes move packets through
    ``Network.rotate`` outside ``allocate``; the SoA core sees the moves
    only through the per-VC events, every cycle."""
    sides = [_plane_side(engine, plane, seed, rate)
             for engine in ("fast", "reference")]
    run_side_by_side(*sides, cycles=PLANE_CYCLES)
    assert sides[0].simulator.engine_path == "soa"


@pytest.mark.parametrize("plane,counter", [
    ("centralized", "centralized_spins"), ("proactive", "proactive_drains")])
def test_the_plane_scenarios_really_spin(plane, counter):
    sides = [_plane_side(engine, plane, seed=5, rate=0.0)
             for engine in ("fast", "reference")]
    run_side_by_side(*sides, cycles=PLANE_CYCLES)
    assert sides[0].simulator.engine_path == "soa"
    events = sides[0].network.stats.events
    assert events.get(counter, 0) >= 1
    assert events["spin_hops"] >= 1
    assert sides[0].network.stats.packets_delivered == 4
