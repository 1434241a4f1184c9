"""SPIN control plane: SM transport and controller scheduling.

Implements the microarchitectural guarantees of paper Sec. IV-D:

* **No additional links** — SMs traverse the regular links (their occupancy
  is tracked separately for the Fig. 8(b) utilization split) and have
  priority over flits, so a busy link never delays an SM.
* **Bufferless traversal** — an SM is processed and forwarded in the cycle
  it arrives; on output-link contention among SMs the winner is chosen by
  class priority, then the sender's rotating dynamic priority, and every
  loser is dropped (the initiator FSMs recover via timeouts).
* **Distributed** — there is no central coordinator; this class is only the
  simulation-level event plumbing between per-router controllers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.config import SpinParams
from repro.core.controller import SpinController
from repro.core.executor import SpinExecutor
from repro.core.fsm import SpinState
from repro.core.priority import RotatingPriority
from repro.errors import ProtocolError


class SpinFramework:
    """The SPIN recovery control plane for one network."""

    def __init__(self, params: SpinParams) -> None:
        self.params = params
        self.network = None
        self.stats = None
        self.priority = None
        self.controllers: List[SpinController] = []
        self.executor = SpinExecutor(self)
        #: arrival cycle -> [(router, inport, sm)]
        self._arrivals: Dict[int, List[Tuple[int, int, object]]] = defaultdict(list)
        #: SMs emitted this cycle, pending contention resolution.
        self._outbox: List[Tuple[int, int, object]] = []
        self.max_probe_path = 0
        #: When true, each spin is labelled true-deadlock vs false-positive
        #: using the ground-truth wait-graph (Fig. 9).  Costs CPU time.
        self.collect_ground_truth = False

    # ------------------------------------------------------------------
    # Control-plane lifecycle
    # ------------------------------------------------------------------
    def bind(self, network) -> None:
        self.network = network
        self.stats = network.stats
        num_routers = len(network.routers)
        self.priority = RotatingPriority(num_routers, self.params.epoch_length)
        self.controllers = [
            SpinController(router, self) for router in network.routers
        ]
        self.max_probe_path = self.params.probe_path_factor * num_routers
        # Watchdog round-trip bound (docs/FAULTS.md): the longest loop a
        # probe can confirm has at most max_probe_path hops, each costing
        # one link traversal plus one router pipeline — the theorem's
        # loop-delay bound.  An SM round trip that outlives this bound (plus
        # margin) was lost and may be retried.
        max_link_latency = max(
            (link.latency for link in network.links.values()), default=1)
        self.sm_rtt_bound = self.max_probe_path * (
            max_link_latency + network.config.router_latency)

    def phase_control(self, cycle: int) -> None:
        # 1. Spins scheduled for this cycle happen before anything else.
        self.executor.execute(cycle)
        # 2. Deliver and process SM arrivals, highest class priority first.
        arrivals = self._arrivals.pop(cycle, None)
        if arrivals:
            by_router: Dict[int, list] = defaultdict(list)
            for router_id, inport, sm in arrivals:
                by_router[router_id].append((inport, sm))
            for router_id in sorted(by_router):
                batch = by_router[router_id]
                if len(batch) > 1:
                    batch.sort(key=lambda item: (
                        -item[1].class_priority,
                        -self.priority.dynamic_priority(item[1].sender,
                                                        cycle),
                        item[0],
                    ))
                controller = self.controllers[router_id]
                for inport, sm in batch:
                    controller.on_sm(sm, inport, cycle)
        # 3. Detection counters and initiator timeouts tick.
        #    (An OFF controller at an empty router has nothing to point at:
        #    its tick would return at once.)
        off = SpinState.OFF
        for controller in self.controllers:
            if controller.state is off and not controller.router.active_vcs:
                continue
            controller.tick(cycle)
        # 4. Resolve output-link contention among SMs emitted this cycle.
        self._resolve_outbox(cycle)

    # ------------------------------------------------------------------
    # SM transport
    # ------------------------------------------------------------------
    def send_sm(self, router_id: int, outport: int, sm, now: int) -> None:
        """Emit an SM from a router's output port this cycle."""
        self._outbox.append((router_id, outport, sm))

    def _resolve_outbox(self, now: int) -> None:
        if not self._outbox:
            return
        by_link: Dict[Tuple[int, int], list] = defaultdict(list)
        for router_id, outport, sm in self._outbox:
            by_link[(router_id, outport)].append(sm)
        self._outbox = []
        injector = self.network.fault_injector
        for (router_id, outport), sms in by_link.items():
            router = self.network.routers[router_id]
            link = router.out_links.get(outport)
            if link is None:
                raise ProtocolError(
                    f"SM emitted on missing port {outport} of router "
                    f"{router_id}", router=router_id, port=outport, cycle=now)
            if len(sms) == 1:
                # Uncontended port (the overwhelmingly common case): the
                # priority comparison has a single competitor.
                winner = sms[0]
            else:
                winner = max(sms, key=lambda sm: (
                    sm.class_priority,
                    self.priority.dynamic_priority(sm.sender, now),
                    -sm.sender,
                ))
                for sm in sms:
                    if sm is not winner:
                        self.stats.count(f"{sm.kind}s_dropped_contention")
            if not link.up:
                # Fail-stop link: the SM is lost; initiator watchdogs and
                # the kill/abort machinery recover (docs/FAULTS.md).
                self.stats.count("sm_dropped")
                self.stats.count(f"sm_dropped_{winner.kind}")
                self.stats.count(f"{winner.kind}s_dropped_dead_link")
                continue
            extra_delay = 0
            if injector is not None:
                verdict = injector.filter_sm(winner, link, now)
                if verdict is None:
                    continue  # dropped (the injector counted it)
                winner, extra_delay = verdict
            link.record_sm()
            neighbor, dst_inport = router.out_neighbors[outport]
            self._arrivals[now + link.latency + extra_delay].append(
                (neighbor.id, dst_inport, winner))

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def on_probe_sent(self, router_id: int, now: int) -> None:
        self.stats.count("probes_sent")

    # ------------------------------------------------------------------
    # Introspection (tests, reports)
    # ------------------------------------------------------------------
    def controller_of(self, router_id: int) -> SpinController:
        """The SPIN controller attached to a router."""
        return self.controllers[router_id]

    def frozen_vc_count(self) -> int:
        """Number of currently frozen VCs across the network."""
        count = 0
        for router in self.network.routers:
            for _, vcs in router.all_inports():
                count += sum(1 for vc in vcs if vc.frozen)
        return count
