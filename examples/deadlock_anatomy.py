#!/usr/bin/env python
"""Anatomy of one SPIN recovery, cycle by cycle.

Plants the textbook deadlock of the paper's Fig. 2 — a ring of packets each
holding the buffer the next one needs — and narrates the three phases of the
distributed recovery (Sec. IV-B):

  Phase I   deadlock detection (tDD timeout -> probe traces the loop)
  Phase II  communicating the spin cycle (move freezes the loop's VCs)
  Phase III the spin (synchronized one-hop rotation, no free buffer needed)

Run:
    python examples/deadlock_anatomy.py
"""

from repro.config import SpinParams
from repro.core.fsm import SpinState
from repro.deadlock.waitgraph import find_deadlocked_packets
from repro.network.network import Network
from repro.config import NetworkConfig
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim import create_engine
from repro.topology.ring import RingTopology, COUNTER_CLOCKWISE

RING = 6
DST_AHEAD = 2
TDD = 16


def plant_deadlock(network):
    """One packet per router, each two hops from its destination clockwise."""
    return [network.plant_packet(router_id, COUNTER_CLOCKWISE,
                                 (router_id + DST_AHEAD) % RING)
            for router_id in range(RING)]


def snapshot(network):
    states = [network.spin.controllers[r].state for r in range(RING)]
    frozen = network.spin.frozen_vc_count()
    return states, frozen


def main():
    network = Network(RingTopology(RING), NetworkConfig(vcs_per_vnet=1),
                      MinimalAdaptiveRouting(1), spin=SpinParams(tdd=TDD),
                      seed=1)
    packets = plant_deadlock(network)
    sim = create_engine()  # any engine narrates identically (REPRO_ENGINE)
    sim.register(network)

    print(f"Planted a deadlocked ring of {RING} packets "
          f"(each {DST_AHEAD} hops from its destination).\n")
    sim.run(2)
    deadlocked = find_deadlocked_packets(network, sim.cycle)
    print(f"cycle {sim.cycle:4d}: ground-truth oracle confirms "
          f"{len(deadlocked)} packets are truly deadlocked")

    seen = set()
    last_states, last_frozen = None, None
    while network.stats.packets_delivered < len(packets) and sim.cycle < 2000:
        sim.step()
        events = network.stats.events
        for key, label in [
            ("probes_sent", "Phase I   : tDD expired -> probe sent to "
                            "trace the suspected loop"),
            ("probes_returned", "Phase I   : probe returned to its sender "
                                "-> deadlock CONFIRMED, path latched in "
                                "loop buffer"),
            ("moves_sent", "Phase II  : move sent -> conveys the spin "
                           "cycle, freezes one VC per router"),
            ("moves_returned", "Phase II  : move returned -> every router "
                               "is frozen and counting to the spin cycle"),
            ("spins", "Phase III : THE SPIN -- all frozen packets moved "
                      "one hop simultaneously"),
            ("probe_moves_sent", "Repeat    : probe_move re-checks the "
                                 "loop (multi-spin optimization)"),
            ("kill_moves_sent", "Cancel    : dependency gone -> kill_move "
                                "unfreezes the loop"),
        ]:
            count = events.get(key, 0)
            if count and (key, count) not in seen:
                seen.add((key, count))
                print(f"cycle {sim.cycle:4d}: {label}")
        states, frozen = snapshot(network)
        if (states, frozen) != (last_states, last_frozen):
            if frozen and frozen != last_frozen:
                print(f"cycle {sim.cycle:4d}:   frozen VCs: {frozen}")
            if any(s is SpinState.FORWARD_PROGRESS for s in states) and (
                    not last_states or not any(
                        s is SpinState.FORWARD_PROGRESS for s in last_states)):
                initiator = states.index(SpinState.FORWARD_PROGRESS)
                controller = network.spin.controllers[initiator]
                print(f"cycle {sim.cycle:4d}:   initiator router "
                      f"{initiator}: spin scheduled for cycle "
                      f"{controller.spin_cycle} "
                      f"(= move send + 2 x loop delay)")
            last_states, last_frozen = states, frozen
        delivered = network.stats.packets_delivered
        if delivered and ("delivered", delivered) not in seen:
            seen.add(("delivered", delivered))
            print(f"cycle {sim.cycle:4d}: {delivered}/{len(packets)} "
                  f"packets have reached their destinations")

    print(f"\nAll {network.stats.packets_delivered} packets delivered.")
    print(f"Total spins: {network.stats.events.get('spins', 0)} "
          f"(theorem bound for this ring: {RING - 1})")
    print(f"Max spins experienced by any packet: "
          f"{max(p.spins for p in packets)}")


if __name__ == "__main__":
    main()
