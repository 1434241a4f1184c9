"""The fast engine: idle skipping + a struct-of-arrays core for active work.

Design contract
---------------

:class:`FastSimulator` is **not** a second implementation of the datapath.
All authoritative state stays in the reference objects (``Router``,
``VirtualChannel``, ``Link``, ``NetworkInterface``, the SPIN controllers).
The engine layers two mechanisms on top of them:

* **Event-driven idle skipping** — per-router dirty bits + wake times (set
  by every VC reserve/release event), per-controller FSM due times, and
  per-NIC injection wake times let quiescent regions cost zero cycles, with
  a whole-run fast-forward once traffic stops and the network drains.
* **A struct-of-arrays core for the regions that *are* active** —
  :class:`repro.sim.fastcore.soa.SoaCore` lays the network out as
  integer-indexed tables (the shared :class:`~repro.network.plan.FabricPlan`
  for everything static: global VC id space, arbitration keys, upstream and
  downstream id rows; its own occupancy / ready / credit mirrors, per-router
  active rows, candidate entries and lazy hop rows for the rest)
  and advances the ``allocate`` and ``inject`` phases over those tables
  with the reference datapath inlined, writing the authoritative objects
  directly so the oracle, golden traces and SPIN controllers see identical
  state at every phase boundary.  See the :mod:`soa` module docstring for
  the mirror-synchronization invariants.

The per-cycle work that does run is semantically a line-for-line replica of
``Router.allocate`` / ``NetworkInterface.try_inject`` (same request scan
order, same RNG draws, same arbitration pointers, same field writes), so
granted cycles are bit-identical to the reference engine; the analysis for
*skipped* cycles proves them to be reference no-ops.

SPIN controller ticks are skipped before their FSM-derived deadlines unless
an SM arrived or a VC event touched their router (``_ctrl_due`` covers all
seven FSM states); spin-execution cycles conservatively tick (and wake)
everything, because the executor may freeze/unfreeze VCs without datapath
events.

The skip/inline analysis is only valid for configurations it was proven
against: stock minimal-adaptive or dimension-order routing (base-class
decision, selection, VC-choice, downstream-VC *and* ``on_hop``/
``on_inject`` hook implementations), the known control planes, and no
runtime fault injector.  Anything else — Static Bubble / escape-VC routing,
custom planes, faults — compiles to the *pure reference schedule*: the
engine still satisfies the API but performs exactly the reference work, so
conformance is trivial.  A runtime link failure while the fast path is
active likewise drops allocation back to the reference rotation (the SoA
mirrors stay synchronized through the event funnel) for as long as dead
links exist.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.fsm import SpinState
from repro.network.vc import VirtualChannel
from repro.sim.engine import Simulator, _PHASES
from repro.sim.fastcore.soa import SoaCore

#: Sentinel wake/due time meaning "never (until an event)".
_NEVER = 1 << 60


def _ctrl_due(controller, cycle: int) -> int:
    """Next cycle at which a controller's ``tick`` is not a no-op.

    Derived from :meth:`repro.core.controller.SpinController.tick`: every
    branch is a pure no-op strictly before the returned cycle, *given* that
    SM arrivals and VC events at the router re-dirty the controller (they
    are the only ways the tick's guards can change earlier).
    """
    state = controller.state
    if state is SpinState.OFF:
        # OFF ticks only re-point at occupied network VCs; occupancy changes
        # require a VC event (dirty).  With no occupied network VC the
        # re-point is a no-op.
        return _NEVER
    deadline = controller.deadline
    if state is SpinState.DD:
        due = deadline if deadline is not None else cycle + 1
        pending = controller.probe_pending
        if pending is not None and pending[3] < due:
            due = pending[3]
        return due
    if state is SpinState.PROBE_MOVE:
        send_at = controller.probe_move_send_at
        if send_at is not None:
            return send_at
        return deadline if deadline is not None else cycle + 1
    if state is SpinState.MOVE or state is SpinState.KILL_MOVE:
        return deadline if deadline is not None else cycle + 1
    # FROZEN / FORWARD_PROGRESS: the escape fires when now > deadline + 1.
    return deadline + 2 if deadline is not None else _NEVER


def _stock_routing(routing) -> bool:
    """Only stock MinAdaptive/XY: base-class decide/select/VC policies.

    Exact-type plus method-identity checks: subclasses (Static Bubble,
    escape-VC, west-first...) override selection, VC disciplines or the
    per-hop/inject hooks in ways the skip/inline analysis does not
    model, and a future override on the whitelisted classes themselves
    must fail closed.  ``on_hop``/``on_inject`` must be the base no-ops
    because the SoA grant/inject paths elide those calls entirely.
    """
    from repro.routing.adaptive import MinimalAdaptiveRouting
    from repro.routing.base import RoutingAlgorithm
    from repro.routing.dor import DimensionOrderRouting

    cls = type(routing)
    if cls not in (MinimalAdaptiveRouting, DimensionOrderRouting):
        return False
    base = RoutingAlgorithm
    shared = ("decide", "select", "wait_choice", "vc_choices",
              "permitted_vcs", "pick_downstream_vc", "injection_vc_choices",
              "on_hop", "on_inject")
    for method in shared:
        if getattr(cls, method) is not getattr(base, method):
            return False
        if method in routing.__dict__:
            return False  # instance-level monkeypatch
    return "candidate_outports" not in routing.__dict__


def fallback_reason(net, faults: bool = False) -> Optional[str]:
    """Why a ``fast`` request runs the reference schedule on this network.

    ``None`` when the network is inside the envelope the SoA core was
    proven against; otherwise one ``<what>: <detail>`` line naming the
    first thing outside it (runtime faults, dead links, the routing class,
    a control plane).  The simulated results are identical either way;
    only the speed-up is lost.  ``faults`` says a fault injector *will* be
    bound to the network (a bound one is seen without it).
    """
    from repro.core.centralized import CentralizedSpinPlane
    from repro.core.framework import SpinFramework
    from repro.core.proactive import ProactiveSpinPlane

    if faults or net.fault_injector is not None:
        return "faults: a runtime fault injector is attached"
    if net.dead_link_count:
        return f"dead-links: {net.dead_link_count} links are down"
    if not _stock_routing(net.routing):
        return (f"routing: {type(net.routing).__name__} overrides the "
                f"base-class decision, VC or per-hop policy")
    known = (SpinFramework, ProactiveSpinPlane, CentralizedSpinPlane)
    for plane in net.control_planes:
        if not isinstance(plane, known):
            return f"plane: {type(plane).__name__} is not a SPIN control plane"
    return None


class FastSimulator(Simulator):
    """Drop-in engine: reference state, event-driven skips, SoA hot loops."""

    name = "fast"

    def __init__(self) -> None:
        super().__init__()
        self._net = None
        self._fw = None
        self._traffic = None
        self._fast_ok = False
        self._ff_ok = False
        self._core: SoaCore = None
        #: Which datapath the compiled schedule runs (set by ``_compile``).
        self.engine_path: Optional[str] = None
        #: Why it is the reference schedule, when it is.
        self.fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Decide whether the fast paths apply and build the SoA core.

        Records the verdict in :attr:`engine_path` (``"soa"`` or
        ``"reference-schedule"``) and, for the latter, why in
        :attr:`fallback_reason`.
        """
        from repro.network.network import Network

        self._fast_ok = False
        self._ff_ok = False
        self.engine_path = "reference-schedule"
        nets = [c for c in self._components if isinstance(c, Network)]
        if len(nets) != 1:
            self.fallback_reason = (
                f"components: {len(nets)} networks registered, the SoA core "
                f"drives exactly one")
            self._detach_sink()
            return
        net = nets[0]
        self._net = net
        self.fallback_reason = fallback_reason(net)
        if self.fallback_reason is not None:
            self._detach_sink()
            return

        self._fast_ok = True
        self.engine_path = "soa"
        self._fw = net.spin
        self._core = SoaCore(net)
        net.engine_sink = self

        # Fast-forward additionally requires that no component or observer
        # could do per-cycle work on a drained network.
        from repro.traffic.generator import SyntheticTraffic

        others = [c for c in self._components if c is not net]
        self._traffic = None
        if not others:
            self._ff_ok = not self._observers
        elif len(others) == 1 and type(others[0]) is SyntheticTraffic:
            self._traffic = others[0]
            self._ff_ok = not self._observers
        else:
            self._ff_ok = False

    def _detach_sink(self) -> None:
        if self._net is not None and getattr(self._net, "engine_sink", None) is self:
            self._net.engine_sink = None

    def _build_schedule(self):
        started = perf_counter()
        schedule = self._compile_schedule()
        if self._profiler is not None:
            self._profiler.record_setup("compile", perf_counter() - started)
        return schedule

    def _compile_schedule(self):
        self._compile()
        if not self._fast_ok:
            return super()._build_schedule()
        substitutes = {
            "phase_control": self._fast_phase_control,
            "phase_inject": self._fast_phase_inject,
            "phase_allocate": self._fast_phase_allocate,
        }
        schedule = []
        for phase in _PHASES:
            bound = []
            for component in self._components:
                if component is self._net and phase in substitutes:
                    bound.append(substitutes[phase])
                elif hasattr(component, phase):
                    bound.append(getattr(component, phase))
            bound.extend(
                getattr(observer, phase)
                for observer in self._observers
                if hasattr(observer, phase)
            )
            schedule.append(bound)
        return self._wrap_schedule(schedule)

    # ------------------------------------------------------------------
    # Event sink (called from Network.note_vc_* and NIC.enqueue)
    # ------------------------------------------------------------------
    def vc_reserved(self, router, vc=None) -> None:
        if vc is None:
            # Legacy vc-less event: scenario planting mutated VC fields
            # directly — rebuild every mirror from the objects.
            self._core.resync()
            return
        self._core.on_reserved(router, vc)

    def vc_released(self, router, vc=None) -> None:
        if vc is None:
            self._core.resync()
            return
        self._core.on_released(router, vc)

    def nic_backlogged(self, node: int) -> None:
        self._core.nic_backlogged(node)

    # ------------------------------------------------------------------
    # Phase: control
    # ------------------------------------------------------------------
    def _fast_phase_control(self, cycle: int) -> None:
        net = self._net
        net.now = cycle
        fw = self._fw
        for plane in net.control_planes:
            if plane is fw:
                self._spin_control(cycle)
            else:
                plane.phase_control(cycle)

    def _spin_control(self, cycle: int) -> None:
        """Replica of SpinFramework.phase_control with no-op ticks skipped."""
        fw = self._fw
        core = self._core
        executor = fw.executor
        # Peek before execute() pops: spin cycles freeze/unfreeze VCs and run
        # controller callbacks with no datapath events, so they tick (and
        # wake) everything.
        pending = executor._pending
        full_cycle = cycle in pending
        if pending:
            executor.execute(cycle)
        arrivals = fw._arrivals.pop(cycle, None) if fw._arrivals else None
        c_dirty = core.c_dirty
        r_dirty = core.r_dirty
        if arrivals:
            by_router: Dict[int, list] = defaultdict(list)
            for router_id, inport, sm in arrivals:
                by_router[router_id].append((inport, sm))
            for router_id in sorted(by_router):
                batch = by_router[router_id]
                batch.sort(key=lambda item: (
                    -item[1].class_priority,
                    -fw.priority.dynamic_priority(item[1].sender, cycle),
                    item[0],
                ))
                controller = fw.controllers[router_id]
                for inport, sm in batch:
                    controller.on_sm(sm, inport, cycle)
                c_dirty[router_id] = 1
                r_dirty[router_id] = 1
            core.c_any_dirty = True
            core.r_any_dirty = True
        c_due = core.c_due
        ticked = 0
        if full_cycle:
            for i, controller in enumerate(fw.controllers):
                c_dirty[i] = 0
                controller.tick(cycle)
                c_due[i] = _ctrl_due(controller, cycle)
                r_dirty[i] = 1
            ticked = len(fw.controllers)
            core.r_any_dirty = True
            core.c_any_dirty = 1 in c_dirty
            core.c_min_due = min(c_due)
        elif core.c_any_dirty or cycle >= core.c_min_due:
            for i, controller in enumerate(fw.controllers):
                if not c_dirty[i] and cycle < c_due[i]:
                    continue
                c_dirty[i] = 0
                # A tick may freeze/unfreeze VCs (watchdog resets, FROZEN
                # escapes) without firing datapath events; the epoch says
                # whether this one did.  Detection-pointer ticks — the vast
                # majority — leave the datapath untouched and must not force
                # an allocate re-run.
                epoch = VirtualChannel.freeze_epoch
                controller.tick(cycle)
                c_due[i] = _ctrl_due(controller, cycle)
                if VirtualChannel.freeze_epoch != epoch:
                    r_dirty[i] = 1
                    core.r_any_dirty = True
                ticked += 1
            core.c_any_dirty = 1 in c_dirty
            core.c_min_due = min(c_due)
        if self._profiler is not None:
            self._profiler.count("controller_ticks", ticked)
            self._profiler.count("controller_ticks_skipped",
                                 len(fw.controllers) - ticked)
        if fw._outbox:
            fw._resolve_outbox(cycle)

    # ------------------------------------------------------------------
    # Phase: inject
    # ------------------------------------------------------------------
    def _fast_phase_inject(self, cycle: int) -> None:
        self._core.phase_inject(cycle)

    # ------------------------------------------------------------------
    # Phase: allocate
    # ------------------------------------------------------------------
    def _fast_phase_allocate(self, cycle: int) -> None:
        net = self._net
        core = self._core
        count = core.router_count
        offset = net._allocation_offset
        if net.dead_link_count:
            # Runtime link failure: the dead-link candidate filter mutates
            # packet route state inside decide(), which the inline analysis
            # does not model.  Run the reference rotation until links heal
            # (the SoA mirrors stay synchronized via the event funnel),
            # keeping every router dirty so the fast path restarts cleanly.
            routers = net.routers
            for i in range(count):
                routers[(i + offset) % count].allocate(cycle)
            net._allocation_offset = (offset + 1) % count
            r_dirty = core.r_dirty
            for i in range(count):
                r_dirty[i] = 1
            core.r_any_dirty = True
            core.r_min_wake = 0
            return
        if not core.r_any_dirty and cycle < core.r_min_wake:
            # No router can grant or change its decision this cycle; only
            # the rotation pointer advances (as it would over N no-ops).
            net._allocation_offset = (offset + 1) % count
            if self._profiler is not None:
                self._profiler.count("alloc_cycles_skipped")
                self._profiler.count("router_cycles_skipped", count)
            return
        r_dirty = core.r_dirty
        r_wake = core.r_wake
        router_cycle = core.router_cycle
        ran = 0
        for i in range(count):
            rid = (i + offset) % count
            if r_dirty[rid] or cycle >= r_wake[rid]:
                router_cycle(rid, cycle)
                ran += 1
        net._allocation_offset = (offset + 1) % count
        core.r_any_dirty = 1 in r_dirty
        core.r_min_wake = min(r_wake)
        if self._profiler is not None:
            self._profiler.count("alloc_cycles_run")
            self._profiler.count("router_cycles_run", ran)
            self._profiler.count("router_cycles_skipped", count - ran)

    # ------------------------------------------------------------------
    # Quiescence fast-forward
    # ------------------------------------------------------------------
    def _quiescent(self, cycle: int) -> bool:
        core = self._core
        if core.occupied or core.active_nics:
            return False
        traffic = self._traffic
        if traffic is not None:
            if traffic.packet_probability > 0 and (
                    traffic.stop_at is None or cycle < traffic.stop_at):
                return False
        fw = self._fw
        if fw is not None:
            if fw._arrivals or fw._outbox or fw.executor._pending:
                return False
            for controller in fw.controllers:
                if controller.state is not SpinState.OFF:
                    return False
        return True

    def run(self, cycles: int) -> None:
        if self._schedule is None:
            self._schedule = self._build_schedule()
        if not (self._fast_ok and self._ff_ok):
            super().run(cycles)
            return
        end = self.cycle + cycles
        while self.cycle < end:
            if self._quiescent(self.cycle):
                # Every remaining cycle is a no-op for every component:
                # land exactly where the reference loop would.
                if self._profiler is not None:
                    self._profiler.count("cycles_fast_forwarded",
                                         end - self.cycle)
                self.cycle = end
                self._net.now = end
                return
            self.step()
