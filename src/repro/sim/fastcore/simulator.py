"""The fast engine: idle skipping + a struct-of-arrays core for active work.

Design contract
---------------

:class:`FastSimulator` is **not** a second implementation of the datapath.
All authoritative state stays in the reference objects (``Router``,
``VirtualChannel``, ``Link``, ``NetworkInterface``, the SPIN controllers).
Every engine injects through the object datapath
(``NetworkInterface.try_inject``), whose NICs sleep until their wake times.  The engine layers three
mechanisms on top of the objects:

* **Quiescence fast-forward, for every design** — once traffic stops, no
  NIC is backlogged, no router holds a packet and the SPIN state is idle,
  every remaining cycle is a no-op and the run lands on its last cycle.
  It needs a schedule of nothing but the network (with control planes that
  do nothing on a drained network) and synthetic traffic, no observer and
  no fault injector.
* **Event-driven router skipping** — per-router dirty bits + wake times
  (set by every VC reserve/release event) let quiescent routers cost zero
  cycles.
* **An inlined allocate phase for the routers that *are* active** —
  :class:`repro.sim.fastcore.soa.SoaCore` walks each router's occupancy
  mask over the objects themselves (indexing the shared
  :class:`~repro.network.plan.FabricPlan` for arbitration keys and
  upstream/NIC rows; candidate entries and hop rows are its own lazy
  caches) and advances the ``allocate`` phase with the reference datapath
  inlined, writing the authoritative objects directly so the oracle,
  golden traces and SPIN controllers see identical state at every phase
  boundary.  It keeps no copy of datapath state: see the :mod:`soa` module
  docstring.

The per-cycle allocation work that does run is semantically a line-for-line
replica of ``Router.allocate`` (same request scan order, same RNG draws,
same arbitration pointers, same field writes), so granted cycles are
bit-identical to the reference engine; the analysis for *skipped* cycles
proves them to be reference no-ops.

SPIN controller ticks are scheduled by the control plane itself: for every
network with a :class:`~repro.core.framework.SpinFramework`, inside the
routing whitelist or not, the engine switches ``SpinFramework.scheduled``
on (contract and fail-closed cases: that module's docstring); the SoA core,
which is the network's engine sink, receives ``Network.wake_router`` for
routers where control work froze or thawed a VC.

The datapath skip/inline analysis is only valid for configurations it was
proven against: stock minimal-adaptive or dimension-order routing
(base-class decision, selection, VC-choice, downstream-VC *and* ``on_hop``
hook implementations), the known control planes, and no runtime fault
injector.  Anything else — Static Bubble / escape-VC routing,
custom planes, faults — compiles to the *reference schedule*: the object
datapath's own ``Network.phase_allocate``, which sleeps exactly for every
design (a router with no ready, unfrozen VC is skipped until its wake time;
the run/skip counts go to ``PhaseProfiler.control_counters``, as does a
fast-forward there).  A runtime link failure
while the fast path is active likewise drops allocation back to the
reference rotation for as long as dead links exist (the SoA core reads the
same objects, so nothing needs re-synchronizing when it takes over again).
The SoA core keeps ``Router.occupied`` and the NICs' wake times but not the
routers'; handing the schedule back to the object phases wakes every router
(``Network.wake_all``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.core.fsm import OFF
from repro.sim.engine import Simulator
from repro.sim.fastcore.soa import SoaCore


def _stock_routing(routing) -> bool:
    """Only stock MinAdaptive/XY: base-class decide/select/VC policies.

    Exact-type plus method-identity checks: subclasses (Static Bubble,
    escape-VC, west-first...) override selection, VC disciplines or the
    per-hop hook in ways the skip/inline analysis does not model, and a
    future override on the whitelisted classes themselves must fail
    closed.  ``on_hop`` must be the base no-op because the SoA grant path
    elides that call.
    """
    from repro.routing.adaptive import MinimalAdaptiveRouting
    from repro.routing.base import RoutingAlgorithm
    from repro.routing.dor import DimensionOrderRouting

    cls = type(routing)
    if cls not in (MinimalAdaptiveRouting, DimensionOrderRouting):
        return False
    base = RoutingAlgorithm
    shared = ("decide", "select", "wait_choice", "vc_choices",
              "permitted_vcs", "pick_downstream_vc", "on_hop")
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
        # The object datapath's run/skip counts are control-loop counts:
        # ``PhaseProfiler.counters`` stays empty on that path.
        net.profiler = self._profiler
        fw = net.spin
        if fw is not None:
            # Tick scheduling is legal on either datapath; only where its
            # counts go differs (``PhaseProfiler.control_counters``).
            fw.scheduled = True
            fw.dirty_all()
            fw.profiler = profiler = self._profiler
            if profiler is not None:
                fw.count = (profiler.count if self.fallback_reason is None
                            else profiler.count_control)
        self._ff_ok = self._fast_forward_ok(net)
        if self.fallback_reason is not None:
            self._detach_sink()
            return

        self._fast_ok = True
        self.engine_path = "soa"
        self._core = SoaCore(net)
        net.engine_sink = self._core

    def _fast_forward_ok(self, net) -> bool:
        """Whether a drained network makes every later cycle a no-op: no
        observer, no fault injector, no component but the network and
        synthetic traffic, and only control planes that do nothing on a
        drained network (SPIN's own state is checked per cycle)."""
        from repro.core.centralized import CentralizedSpinPlane
        from repro.core.framework import SpinFramework
        from repro.core.proactive import ProactiveSpinPlane
        from repro.traffic.generator import SyntheticTraffic

        others = [c for c in self._components if c is not net]
        self._traffic = others[0] if len(others) == 1 else None
        if self._observers or net.fault_injector is not None:
            return False
        if others and type(self._traffic) is not SyntheticTraffic:
            return False
        idle = (SpinFramework, ProactiveSpinPlane, CentralizedSpinPlane)
        return all(type(plane) in idle for plane in net.control_planes)

    def _detach_sink(self) -> None:
        core, self._core = self._core, None
        if core is not None and self._net.engine_sink is core:
            self._net.engine_sink = None
            # The SoA core kept no object-path router wake times: the
            # allocate phase re-derives them from the objects.
            self._net.wake_all()

    def _build_schedule(self):
        started = perf_counter()
        schedule = self._compile_schedule()
        if self._profiler is not None:
            self._profiler.record_setup("compile", perf_counter() - started)
        return schedule

    def _compile_schedule(self):
        self._compile()
        schedule = self._bound_schedule()
        if self._fast_ok:
            allocate = self._net.phase_allocate
            schedule = [[self._fast_phase_allocate if hook == allocate
                         else hook for hook in bound]
                        for bound in schedule]
        return self._wrap_schedule(schedule)

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
            # does not model.  Run the reference rotation until links heal,
            # keeping every router dirty so the fast path restarts cleanly
            # (it reads the objects the rotation wrote).
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
        traffic = self._traffic
        if traffic is not None and traffic.packet_probability > 0 and (
                traffic.stop_at is None or cycle < traffic.stop_at):
            return False
        net = self._net
        if net.backlogged:
            return False
        for router in net.routers:
            if router.occupied:
                return False
        fw = net.spin
        if fw is not None:
            if fw._arrivals or fw._outbox or fw.executor._pending:
                return False
            for controller in fw.controllers:
                if controller.state is not OFF:
                    return False
        return True

    def run(self, cycles: int) -> None:
        if self._schedule is None:
            self._schedule = self._build_schedule()
        if not self._ff_ok:
            super().run(cycles)
            return
        end = self.cycle + cycles
        while self.cycle < end:
            if self._quiescent(self.cycle):
                # Every remaining cycle is a no-op for every component:
                # land exactly where the reference loop would.
                skipped = end - self.cycle
                profiler = self._profiler
                if profiler is not None:
                    count = (profiler.count if self._fast_ok
                             else profiler.count_control)
                    count("cycles_fast_forwarded", skipped)
                # The allocation rotation advances over no-op cycles too.
                net = self._net
                net._allocation_offset = (
                    (net._allocation_offset + skipped) % len(net.routers))
                self.cycle = end
                net.now = end
                return
            self.step()
