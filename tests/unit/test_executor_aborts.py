"""Unit tests for every spin-executor abort path (the safety guards)."""

from repro.config import SpinParams
from repro.sim.engine import Simulator
from repro.topology.ring import CLOCKWISE, COUNTER_CLOCKWISE

from tests.conftest import craft_ring_deadlock, make_ring_network


def frozen_network(m=6, tdd=8):
    """A ring network advanced until all loop VCs are frozen."""
    network = make_ring_network(m=m, spin=SpinParams(tdd=tdd))
    packets = craft_ring_deadlock(network, dst_ahead=2)
    sim = Simulator()
    sim.register(network)
    sim.run_until(lambda: network.spin.frozen_vc_count() == m,
                  max_cycles=300)
    assert network.spin.frozen_vc_count() == m
    return network, packets, sim


def frozen_entries(network):
    return [vc for _, _, vc in network.occupied_vcs() if vc.frozen]


class TestAbortPaths:
    def test_undersized_group(self):
        network, packets, sim = frozen_network()
        # Unfreeze all but one entry: the survivor's group is undersized.
        entries = frozen_entries(network)
        for vc in entries[1:]:
            vc.clear_freeze()
        spin_cycle = entries[0].freeze_spin_cycle
        sim.run(spin_cycle - sim.cycle + 1)
        assert network.stats.events.get("spins_aborted_undersized", 0) >= 1
        assert network.spin.frozen_vc_count() == 0

    def test_broken_chain_indices(self):
        network, packets, sim = frozen_network()
        entries = frozen_entries(network)
        # Corrupt one entry's path index: indices are no longer 0..k-1.
        victim = max(entries, key=lambda vc: vc.freeze_path_index)
        victim.freeze_path_index = 99
        spin_cycle = victim.freeze_spin_cycle
        sim.run(spin_cycle - sim.cycle + 1)
        assert network.stats.events.get("spins_aborted_broken_chain", 0) >= 1
        # Nothing lost: all packets still resident or delivered.
        assert (network.stats.packets_delivered
                + network.packets_in_flight()) == len(packets)

    def test_busy_link(self):
        network, packets, sim = frozen_network()
        entries = frozen_entries(network)
        router = network.routers[entries[0].router]
        router.out_links[entries[0].freeze_outport].busy_until = 10 ** 6
        spin_cycle = entries[0].freeze_spin_cycle
        sim.run(spin_cycle - sim.cycle + 1)
        assert network.stats.events.get("spins_aborted_link_busy", 0) >= 1
        assert network.spin.frozen_vc_count() == 0

    def test_wrong_neighbor_chain(self):
        network, packets, sim = frozen_network()
        entries = frozen_entries(network)
        # Point one frozen entry at the wrong outport: the ring no longer
        # closes geometrically.
        victim = entries[2]
        victim.freeze_outport = (
            COUNTER_CLOCKWISE if victim.freeze_outport == CLOCKWISE
            else CLOCKWISE)
        spin_cycle = victim.freeze_spin_cycle
        sim.run(spin_cycle - sim.cycle + 1)
        assert network.stats.events.get("spins_aborted_broken_chain", 0) >= 1

    def test_recovery_retries_after_abort(self):
        # After any abort, detection restarts and the deadlock still gets
        # resolved eventually.
        network, packets, sim = frozen_network()
        entries = frozen_entries(network)
        entries[3].clear_freeze()  # force one abort round
        done = sim.run_until(
            lambda: network.stats.packets_delivered == len(packets),
            max_cycles=3000)
        assert done
        assert network.stats.events.get("spins_aborted", 0) >= 1
        assert network.stats.events.get("spins", 0) >= 1


class TestLinkDedup:
    def test_two_groups_sharing_a_link_cannot_both_spin(self):
        # Construct two fake frozen groups that both claim the same links in
        # the same cycle; the executor must abort the second.
        network, packets, sim = frozen_network(m=6)
        entries = sorted(frozen_entries(network),
                         key=lambda vc: vc.freeze_path_index)
        spin_cycle = entries[0].freeze_spin_cycle
        source = entries[0].freeze_source
        outports = [vc.freeze_outport for vc in entries]
        executor = network.spin.executor
        assert executor._spin_group(list(entries), spin_cycle)
        # Two real groups cannot share occupied VCs, so refreeze the rotated
        # ring as a second group of the same cycle: every link it needs
        # carries the first group's packets now.
        for index, (vc, outport) in enumerate(zip(entries, outports)):
            vc.freeze(outport, source, spin_cycle, index)
        assert not executor._spin_group(list(entries), spin_cycle)
        events = network.stats.events
        assert events["spins_aborted_link_busy"] == 1
        assert events["spin_hops"] == 6
