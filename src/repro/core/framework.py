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

Controller scheduling
---------------------

:meth:`SpinFramework.phase_control` is the one control loop of both
engines.  With :attr:`SpinFramework.scheduled` off (the ``reference``
engine) it ticks every controller every cycle; with it on (the ``fast``
engine, for every design) it ticks a controller only when its dirty bit is
set or its FSM due time (:func:`_ctrl_due`) has come, and every skipped
tick is one the unscheduled loop would have run as a no-op.

*The invariant this rests on:* a controller's guards change only through an
SM arrival or a VC event at its router, and both reschedule it.  A VC event
— a flit hop or a ``Network.plant_packet`` — dirties it
(``Network.note_vc_reserved`` / ``note_vc_released`` set its bit in
:attr:`SpinFramework.dirty`): it ticks in the next control phase.  An SM
batch is handled by the controller itself, so the state it leaves is
known: delivery re-derives the due time from it when the batch moved the
FSM, and a probe that was only forwarded leaves the controller asleep.  A
tick that left the FSM where it was keeps its due time as well;
:meth:`SpinFramework.dirty_all` makes the next scheduled tick of every
controller re-derive it.  Everything
that writes controller-visible state *without* going through that funnel
fails closed here, not in the engine:

* the **spin executor** rotates packets and runs controller callbacks on
  its own: a cycle with a spin scheduled ticks every controller and wakes
  every router;
* a **fault injector** or **dead links** (SM loss/delay/corruption, router
  power-gating, packets dropped behind the controllers' backs):
  scheduling is off for as long as either is present, and every
  controller is dirty when it resumes.

*The arrival rule.*  Control work touches the datapath only by freezing or
thawing a VC (``move`` / ``probe_move`` / ``kill_move``, watchdog resets,
FROZEN escapes) — a probe reads ``current_request`` and moves on.  So an SM
batch or a tick wakes its router's allocation
(:meth:`repro.network.network.Network.wake_router`) only if
``VirtualChannel.freeze_epoch`` moved while it was handled.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Tuple

from repro.config import SpinParams
from repro.core.controller import SpinController
from repro.core.executor import SpinExecutor
from repro.core.fsm import DD, KILL_MOVE, MOVE, OFF, PROBE_MOVE
from repro.core.priority import RotatingPriority
from repro.errors import ProtocolError
from repro.network.vc import VirtualChannel

#: Sentinel due time meaning "never (until the controller is dirtied)".
_NEVER = 1 << 60


def _ctrl_due(controller: SpinController, cycle: int) -> int:
    """Next cycle at which a controller's ``tick`` is not a no-op.

    Derived from :meth:`repro.core.controller.SpinController.tick`: every
    branch is a pure no-op strictly before the returned cycle, *given* the
    module docstring's invariant (SM arrivals and VC events at the router
    reschedule the controller; they are the only ways the tick's guards
    can change earlier).
    """
    state = controller.state
    if state is OFF:
        # OFF ticks only re-point at occupied network VCs; occupancy changes
        # require a VC event (dirty).  With no occupied network VC the
        # re-point is a no-op.
        return _NEVER
    deadline = controller.deadline
    if state is DD:
        due = deadline if deadline is not None else cycle + 1
        pending = controller.probe_pending
        if pending is not None and pending[3] < due:
            due = pending[3]
        return due
    if state is PROBE_MOVE:
        send_at = controller.probe_move_send_at
        if send_at is not None:
            return send_at
        return deadline if deadline is not None else cycle + 1
    if state is MOVE or state is KILL_MOVE:
        return deadline if deadline is not None else cycle + 1
    # FROZEN / FORWARD_PROGRESS: the escape fires when now > deadline + 1.
    return deadline + 2 if deadline is not None else _NEVER


class SpinFramework:
    """The SPIN recovery control plane for one network."""

    def __init__(self, params: SpinParams) -> None:
        self.params = params
        self.network = None
        self.stats = None
        self.priority = None
        self.controllers: List[SpinController] = []
        self.executor = SpinExecutor(self)
        #: arrival cycle -> router -> [(inport, sm)], each batch in the
        #: order its SMs won their links.
        self._arrivals: Dict[int, Dict[int, List[Tuple[int, object]]]] = {}
        #: SMs emitted this cycle, pending contention resolution.
        self._outbox: List[Tuple[int, int, object]] = []
        self.max_probe_path = 0
        #: When true, each spin is labelled true-deadlock vs false-positive
        #: using the ground-truth wait-graph (Fig. 9).  Costs CPU time.
        self.collect_ground_truth = False
        #: Skip no-op controller ticks (module docstring).  Switched on by
        #: the ``fast`` engine; the ``reference`` engine leaves it off.
        self.scheduled = False
        #: Per-controller dirty bits (one object for the framework's life:
        #: the SoA core's inlined VC events write it directly) and FSM due
        #: times, both sized by :meth:`bind`; ``_min_due`` is ``min(_due)``.
        self.dirty = bytearray()
        self._due: List[int] = []
        self._min_due = 0
        #: Set by :meth:`dirty_all`: the next scheduled tick re-derives
        #: every due time, whether or not the tick moved its FSM.
        self._resync = True
        #: A :class:`repro.sim.profile.PhaseProfiler` (set by the engine
        #: that switches scheduling on) and where this loop's counters go.
        self.profiler = None
        self.count = None

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
        self._due = [0] * num_routers
        self.dirty_all()
        # Probe path cap: every resolvable loop visits a router at most
        # twice (the figure-8 case); longer paths are orbiting rho-walk
        # probes, which would starve other recoveries (DESIGN.md).
        self.max_probe_path = 2 * num_routers
        # Watchdog round-trip bound (docs/FAULTS.md): the longest loop a
        # probe can confirm has at most max_probe_path hops, each costing
        # one link traversal plus one router pipeline — the theorem's
        # loop-delay bound.  An SM round trip that outlives this bound (plus
        # margin) was lost and may be retried.
        max_link_latency = max(
            (link.latency for link in network.links.values()), default=1)
        self.sm_rtt_bound = self.max_probe_path * (
            max_link_latency + network.config.router_latency)

    # ------------------------------------------------------------------
    # Controller scheduling (module docstring)
    # ------------------------------------------------------------------
    def dirty_all(self) -> None:
        """Drop every cached due time: the next scheduled cycle ticks all."""
        self.dirty[:] = b"\x01" * len(self.controllers)
        self._resync = True

    def _wake(self, router_id: int) -> None:
        """Control work froze or thawed a VC at this router."""
        self.network.wake_router(router_id)
        if self.profiler is not None:
            self.count("routers_woken_by_control")

    def phase_control(self, cycle: int) -> None:
        profiler = self.profiler
        if profiler is not None:
            mark = perf_counter()
        # 1. Spins scheduled for this cycle happen before anything else.
        #    (Peek before execute() pops the cycle's groups.)
        executor = self.executor
        spinning = cycle in executor._pending
        if executor._pending:
            executor.execute(cycle)
        if profiler is not None:
            mark = profiler.lap("control", "executor", mark)
        # 2. Deliver and process SM arrivals, highest class priority first.
        arrivals = self._arrivals.pop(cycle, None) if self._arrivals else None
        if arrivals:
            self._deliver(arrivals, cycle)
        if profiler is not None:
            mark = profiler.lap("control", "sm_delivery", mark)
        # 3. Detection counters and initiator timeouts tick.
        controllers = self.controllers
        network = self.network
        if not (self.scheduled and network.fault_injector is None
                and not network.dead_link_count):
            # Every controller, every cycle.  (An OFF controller at an empty
            # router has nothing to point at: its tick would return at once.)
            ticked = 0
            for controller in controllers:
                if controller.state is OFF and not controller.router.occupied:
                    continue
                controller.tick(cycle)
                ticked += 1
            if self.scheduled:
                self.dirty_all()
        elif spinning:
            dirty = self.dirty
            due = self._due
            for i, controller in enumerate(controllers):
                dirty[i] = 0
                controller.tick(cycle)
                due[i] = _ctrl_due(controller, cycle)
                network.wake_router(i)
            ticked = len(controllers)
            self._min_due = min(due)
            self._resync = False
        elif cycle >= self._min_due or 1 in self.dirty:
            dirty = self.dirty
            due = self._due
            ticked = 0
            if cycle >= self._min_due:
                candidates = range(len(controllers))
            else:
                # Nothing is due: visit only the dirty controllers.
                candidates = []
                i = dirty.find(1)
                while i >= 0:
                    candidates.append(i)
                    i = dirty.find(1, i + 1)
            resync = self._resync
            self._resync = False
            for i in candidates:
                if not dirty[i] and cycle < due[i]:
                    continue
                dirty[i] = 0
                controller = controllers[i]
                # Detection-pointer ticks — the vast majority — leave the
                # datapath alone; watchdog resets and FROZEN escapes thaw.
                # A tick that left the FSM where it was keeps its due time.
                epoch = VirtualChannel.freeze_epoch
                if controller.tick(cycle) or resync:
                    due[i] = _ctrl_due(controller, cycle)
                if VirtualChannel.freeze_epoch != epoch:
                    self._wake(i)
                ticked += 1
            self._min_due = min(due)
        else:
            ticked = 0
        if profiler is not None:
            mark = profiler.lap("control", "tick", mark)
            self.count("controller_ticks", ticked)
            self.count("controller_ticks_skipped", len(controllers) - ticked)
        # 4. Resolve output-link contention among SMs emitted this cycle.
        if self._outbox:
            self._resolve_outbox(cycle)
        if profiler is not None:
            profiler.lap("control", "outbox", mark)

    def _deliver(self, buckets, cycle: int) -> None:
        """Hand one cycle's arrivals (router -> ``[(inport, sm)]``) to the
        controllers, router by router in id order.  Within a router the
        batch is handled highest class first, then by the sender's rotating
        priority, then by inport."""
        # RotatingPriority.dynamic_priority, its rotation taken once.
        rotation = cycle // self.priority.epoch_length
        routers = self.priority.num_routers
        controllers = self.controllers
        due = self._due
        min_due = self._min_due
        arrived = 0
        for router_id in sorted(buckets):
            batch = buckets[router_id]
            if len(batch) > 1:
                batch.sort(key=lambda item: (
                    -item[1].class_priority,
                    -((item[1].sender + rotation) % routers),
                    item[0],
                ))
            arrived += len(batch)
            controller = controllers[router_id]
            epoch = VirtualChannel.freeze_epoch
            moved = False
            for inport, sm in batch:
                if controller.on_sm(sm, inport, cycle):
                    moved = True
            # Only a batch that moved the FSM moves its due time (a
            # forwarded probe leaves the controller asleep).
            if moved:
                when = due[router_id] = _ctrl_due(controller, cycle)
                if when < min_due:
                    min_due = when
            if VirtualChannel.freeze_epoch != epoch:
                self._wake(router_id)
        self._min_due = min_due
        if self.profiler is not None:
            self.count("sm_arrivals", arrived)

    # ------------------------------------------------------------------
    # SM transport
    # ------------------------------------------------------------------
    def send_sm(self, router_id: int, outport: int, sm, now: int) -> None:
        """Emit an SM from a router's output port this cycle."""
        self._outbox.append((router_id, outport, sm))

    def _resolve_outbox(self, now: int) -> None:
        outbox = self._outbox
        if not outbox:
            return
        self._outbox = []
        # Group by link, in first-emission order: ``first`` holds each
        # link's first SM, ``contested`` every SM of a link that got more.
        first = {}
        contested = None
        for router_id, outport, sm in outbox:
            key = (router_id, outport)
            held = first.get(key)
            if held is None:
                first[key] = sm
            elif contested is None:
                contested = {key: [held, sm]}
            elif key in contested:
                contested[key].append(sm)
            else:
                contested[key] = [held, sm]
        # RotatingPriority.dynamic_priority, its rotation taken once.
        rotation = now // self.priority.epoch_length
        routers = self.priority.num_routers
        stats = self.stats
        links = self.network.links
        arrivals = self._arrivals
        injector = self.network.fault_injector
        lost = 0
        for key, winner in first.items():
            link = links.get(key)
            if link is None:
                router_id, outport = key
                raise ProtocolError(
                    f"SM emitted on missing port {outport} of router "
                    f"{router_id}", router=router_id, port=outport, cycle=now)
            if contested is not None and key in contested:
                sms = contested[key]
                winner = max(sms, key=lambda sm: (
                    sm.class_priority,
                    (sm.sender + rotation) % routers,
                    -sm.sender,
                ))
                for sm in sms:
                    if sm is not winner:
                        stats.count(f"{sm.kind}s_dropped_contention")
                lost += len(sms) - 1
            if not link.up:
                # Fail-stop link: the SM is lost; initiator watchdogs and
                # the kill/abort machinery recover (docs/FAULTS.md).
                stats.count("sm_dropped")
                stats.count(f"sm_dropped_{winner.kind}")
                stats.count(f"{winner.kind}s_dropped_dead_link")
                continue
            when = now + link.latency
            if injector is not None:
                verdict = injector.filter_sm(winner, link, now)
                if verdict is None:
                    continue  # dropped (the injector counted it)
                winner, extra_delay = verdict
                when += extra_delay
            link.sm_cycles += 1
            bucket = arrivals.get(when)
            if bucket is None:
                arrivals[when] = {link.dst: [(link.dst_port, winner)]}
                continue
            batch = bucket.get(link.dst)
            if batch is None:
                bucket[link.dst] = [(link.dst_port, winner)]
            else:
                batch.append((link.dst_port, winner))
        if self.profiler is not None:
            self.count("sm_sends", len(outbox))
            self.count("sm_dropped_contention", lost)

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
