"""The spin executor: triggers the synchronized rotation of a frozen ring.

At the agreed spin cycle every frozen VC of a recovery pushes its packet out
of the requested output port *simultaneously*; each packet lands in the VC
that its downstream neighbour vacates in the same cycle, so no free buffer
is needed anywhere — the central insight of the paper.

The executor does not move packets itself: once per (initiator, spin-cycle)
group it checks that the frozen entries still form the closed chain the
move SM arranged (:meth:`Network.ring_defect`, DESIGN.md §3 "spin safety
guard") and hands the ring to :meth:`Network.rotate`.  An invalid group — a
hole left by a dropped kill_move, a busy output link, a link the ring
crosses twice — is aborted: every entry unfreezes and its router returns to
detection.  This guarantees the datapath no-loss/no-overwrite invariant
under arbitrary SM races; the paper's own kill_move protocol makes aborts
rare, and the property tests exercise both paths.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.errors import SimulationError
from repro.network.vc import VirtualChannel


class SpinExecutor:
    """Registry and performer of pending synchronized spins."""

    def __init__(self, framework) -> None:
        self.framework = framework
        #: spin_cycle -> initiator -> frozen VCs registered for that spin.
        self._pending: Dict[int, Dict[int, List[VirtualChannel]]] = (
            defaultdict(lambda: defaultdict(list)))

    def register(self, vc: VirtualChannel) -> None:
        """Enroll a freshly frozen VC for its spin cycle."""
        self._pending[vc.freeze_spin_cycle][vc.freeze_source].append(vc)

    def pending_spins(self) -> int:
        """Number of (cycle, initiator) groups awaiting execution."""
        return sum(len(groups) for groups in self._pending.values())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, now: int) -> int:
        """Run every spin scheduled for this cycle; returns spins performed."""
        groups = self._pending.pop(now, None)
        if not groups:
            return 0
        performed = 0
        for source in sorted(groups):
            entries = [
                vc for vc in groups[source]
                if vc.frozen and vc.freeze_source == source
                and vc.freeze_spin_cycle == now and vc.packet is not None
            ]
            if self._spin_group(entries, now):
                performed += 1
        return performed

    def _spin_group(self, entries: List[VirtualChannel], now: int) -> bool:
        network = self.framework.network
        if len(entries) < 2:
            self._abort(entries, now, "undersized")
            return False
        entries.sort(key=lambda vc: vc.freeze_path_index)
        indices = [vc.freeze_path_index for vc in entries]
        if indices != list(range(len(entries))):
            self._abort(entries, now, "broken_chain")
            return False
        count = len(entries)
        moves = [(vc, vc.freeze_outport, entries[(i + 1) % count])
                 for i, vc in enumerate(entries)]
        # A link an earlier group of this cycle spun across is busy now.
        defect = network.ring_defect(moves, now)
        if defect is not None:
            self._abort(entries, now, defect)
            return False

        if self.framework.collect_ground_truth:
            self._classify_ground_truth(entries, now)

        # Capture per-router initiator flags before the rotation wipes the
        # freeze metadata (release() clears it as each packet departs).
        initiators = {}
        for vc in entries:
            was = initiators.get(vc.router, False)
            initiators[vc.router] = was or vc.freeze_path_index == 0

        self._rotate(moves, now)
        self.framework.stats.count("spins")
        injector = getattr(network, "fault_injector", None)
        if injector is not None and injector.faults_fired > 0:
            # A recovery completed on a fabric that has seen injected
            # faults — the headline robustness metric (docs/FAULTS.md).
            self.framework.stats.count("recoveries_after_fault")
        for router_id, was_initiator in initiators.items():
            self.framework.controllers[router_id].on_spin_complete(
                now, was_initiator)
        return True

    def _rotate(self, moves: list, now: int) -> None:
        """:meth:`Network.rotate` the ring, then hold the ``max_spins`` valve."""
        initiator = moves[0][0].freeze_source
        packets = self.framework.network.rotate(moves, now)
        limit = self.framework.params.max_spins
        for (vc, _outport, _target), packet in zip(moves, packets):
            if packet.spins > limit:
                # Simulation-only safety valve (SpinParams.max_spins): the
                # theory bounds the spins one deadlock needs, so exceeding
                # the valve indicates a simulator or protocol bug.
                controller = self.framework.controllers[vc.router]
                raise SimulationError(
                    "packet exceeded max_spins — likely a protocol bug",
                    cycle=now, router=vc.router, packet=packet.uid,
                    spins=packet.spins, fsm_state=controller.state.name,
                    initiator=initiator)

    def _classify_ground_truth(self, entries: List[VirtualChannel],
                               now: int) -> None:
        """Label this spin as resolving a true deadlock or a false positive."""
        from repro.deadlock.waitgraph import find_deadlocked_packets

        deadlocked = find_deadlocked_packets(self.framework.network, now)
        uids = {vc.packet.uid for vc in entries if vc.packet is not None}
        if uids & deadlocked:
            self.framework.stats.count("spins_true_deadlock")
        else:
            self.framework.stats.count("spins_false_positive")

    def _abort(self, entries: List[VirtualChannel], now: int,
               reason: str) -> None:
        self.framework.stats.count("spins_aborted")
        self.framework.stats.count(f"spins_aborted_{reason}")
        routers = []
        for vc in entries:
            vc.clear_freeze()
            if vc.router not in routers:
                routers.append(vc.router)
        for router_id in routers:
            self.framework.controllers[router_id].on_spin_aborted(now)

