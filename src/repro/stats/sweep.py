"""Injection-rate sweeps: latency curves and saturation throughput.

The paper's Figs. 6 and 7 are latency-vs-injection curves; the numbers it
quotes are *saturation throughputs* — the offered load beyond which latency
diverges.  :class:`InjectionSweep` runs one simulation per rate (fresh
network each time), stops once saturation is passed, and reports the curve
plus the measured saturation point.

Two layers drive a single point:

* :func:`simulate_point` — the engine: takes *instantiated* components (a
  network, a traffic source, optionally a fault injector) and simulates the
  warmup/measure/drain windows into a :class:`SweepPoint`.  This is what
  :meth:`repro.harness.runner.ExperimentSpec.build` feeds.
* :func:`run_point` — the factory adapter: builds the components from
  callables and delegates to :func:`simulate_point`.  Its traffic factory
  takes ``(network, rate, stop_at)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine_api import create_engine

#: Relative tolerance for the declared-vs-configured injection-rate check.
_RATE_TOLERANCE = 1e-9


@dataclass
class SweepPoint:
    """Measurements of one simulation at one offered load."""

    injection_rate: float
    mean_latency: float
    p99_latency: float
    throughput: float
    delivery_ratio: float
    wedged: bool
    delivered: int
    events: Dict[str, int] = field(default_factory=dict)
    link_utilization: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    #: Packets destroyed in flight (fault injection / stranded reclamation).
    packets_lost: int = 0
    #: Cycles actually simulated (warmup + measure + drain, less any early
    #: wedge abort).  Feeds the cycles/sec benchmark accounting.
    cycles: int = 0
    #: Invariant-violation occurrences recorded by the runtime oracle
    #: (:mod:`repro.verify`); 0 when the oracle was off or found nothing.
    #: Per-family counts appear in :attr:`events` as ``violation_<name>``.
    invariant_violations: int = 0

    def saturated(self, zero_load_latency: float,
                  latency_cap: float = 4.0,
                  min_delivery: float = 0.85) -> bool:
        """Heuristic saturation test against the zero-load latency."""
        if self.wedged:
            return True
        if self.delivered == 0:
            return True
        if self.delivery_ratio < min_delivery:
            return True
        return self.mean_latency > latency_cap * max(1.0, zero_load_latency)

    # ------------------------------------------------------------------
    # Serialization (repro.stats.results JSON schema)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict; exact inverse of :meth:`from_dict`."""
        return {
            "injection_rate": self.injection_rate,
            "mean_latency": self.mean_latency,
            "p99_latency": self.p99_latency,
            "throughput": self.throughput,
            "delivery_ratio": self.delivery_ratio,
            "wedged": self.wedged,
            "delivered": self.delivered,
            "events": {key: self.events[key] for key in sorted(self.events)},
            "link_utilization": list(self.link_utilization),
            "packets_lost": self.packets_lost,
            "cycles": self.cycles,
            "invariant_violations": self.invariant_violations,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepPoint":
        """Rebuild a point from :meth:`to_dict` output.

        Unknown keys are rejected so schema drift fails loudly instead of
        silently dropping measurements.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown SweepPoint field(s) {sorted(unknown)}",
                known=sorted(known))
        kwargs = dict(data)
        if "link_utilization" in kwargs:
            kwargs["link_utilization"] = tuple(kwargs["link_utilization"])
        if "events" in kwargs:
            kwargs["events"] = dict(kwargs["events"])
        return cls(**kwargs)


def simulate_point(network, traffic, sim_config: SimulationConfig,
                   injection_rate: Optional[float] = None,
                   injector=None,
                   raise_on_wedge: bool = False,
                   verify: bool = False,
                   oracle=None,
                   telemetry: bool = False,
                   telemetry_observer=None,
                   engine: Optional[str] = None,
                   profiler=None) -> SweepPoint:
    """Simulate already-built components through one measurement run.

    This is the single engine behind :func:`run_point`,
    :class:`InjectionSweep` and
    :meth:`repro.harness.runner.ExperimentSpec.run`.

    Args:
        network: The network under test (fresh, unsimulated).
        traffic: The traffic source component (bound to its rate).
        sim_config: Warmup/measure/drain windows, wedge threshold, and the
            ``wedge_poll_interval`` chunking of the measure/drain loop.
        injection_rate: The offered load this point *claims* to run at.
            When the traffic source exposes its configured rate (an
            ``injection_rate`` attribute, as :class:`SyntheticTraffic`
            does), the two must match — a mismatch raises
            :class:`~repro.errors.ConfigurationError` instead of silently
            recording a wrong x-coordinate.  ``None`` takes the rate from
            the traffic source.
        injector: Optional pre-built fault injector; it is bound to the
            network and scheduled *between* the traffic source and the
            network so faults land before the same cycle's control planes
            react.
        raise_on_wedge: Raise :class:`~repro.errors.SimulationError` with a
            wedge snapshot instead of returning a ``wedged=True`` point.
        verify: Attach the runtime invariant oracle (:mod:`repro.verify`)
            in its default raise mode.  Independently of this flag, the
            ``REPRO_VERIFY`` environment variable (``strict``/``record``)
            attaches an oracle to *every* run without code changes.
        oracle: A pre-configured
            :class:`~repro.verify.oracle.InvariantOracle` to attach
            (overrides ``verify`` and the environment gate).  Must be
            constructed for this ``network``.
        telemetry: Attach a recording
            :class:`~repro.telemetry.observer.TelemetryObserver` with
            default configuration.  Independently of this flag, the
            ``REPRO_TELEMETRY`` environment variable enables telemetry on
            every run without code changes (docs/TELEMETRY.md).
        telemetry_observer: A pre-configured
            :class:`~repro.telemetry.observer.TelemetryObserver` to
            attach (overrides ``telemetry`` and the environment gate) —
            how ``repro-sim trace`` keeps the recording for export.  Must
            be constructed for this ``network``.
        engine: Engine name (``reference``/``fast``) driving the cycle
            loop; ``None``/empty falls through the selection precedence
            (``REPRO_ENGINE`` environment variable, then the default) —
            see :mod:`repro.sim.engine_api`.
        profiler: A :class:`~repro.sim.profile.PhaseProfiler` to attach
            to the engine for this point.  Independently, the
            ``REPRO_PROFILE`` environment variable attaches a fresh
            profiler to every run and prints a one-line phase summary to
            stderr (docs/OBSERVE.md).  Profiling never changes the
            measured point.

    Returns:
        The measured :class:`SweepPoint`.  Oracle findings (if any) are in
        :attr:`SweepPoint.invariant_violations` and the
        ``violation_<name>`` event counters; telemetry tallies (if
        enabled) are the ``telemetry_*`` event counters.
    """
    configured = getattr(traffic, "injection_rate", None)
    if injection_rate is None:
        injection_rate = configured if configured is not None else 0.0
    elif configured is not None:
        scale = max(1.0, abs(configured), abs(injection_rate))
        if abs(configured - injection_rate) > _RATE_TOLERANCE * scale:
            raise ConfigurationError(
                "declared injection_rate disagrees with the traffic "
                "source's configured rate",
                declared=injection_rate, configured=configured)

    simulator = create_engine(engine or None)
    env_profiler = None
    if profiler is None:
        from repro.sim.profile import profiler_from_env

        profiler = env_profiler = profiler_from_env()
    if profiler is not None:
        simulator.attach_profiler(profiler)
    stop_at = sim_config.warmup_cycles + sim_config.measure_cycles
    simulator.register(traffic)
    if injector is not None:
        injector.bind(network)
        simulator.register(injector)
    simulator.register(network)
    if oracle is None:
        if verify:
            from repro.verify.oracle import InvariantOracle

            oracle = InvariantOracle(network)
        else:
            from repro.verify.oracle import oracle_from_env

            oracle = oracle_from_env(network)
    if oracle is not None:
        if oracle.network is not network:
            raise ConfigurationError(
                "oracle was built for a different network")
        oracle.attach(simulator)
    if telemetry_observer is None:
        if telemetry:
            from repro.telemetry.observer import TelemetryObserver

            telemetry_observer = TelemetryObserver(network)
        else:
            from repro.telemetry.observer import telemetry_from_env

            telemetry_observer = telemetry_from_env(network)
    if telemetry_observer is not None:
        if telemetry_observer.network is not network:
            raise ConfigurationError(
                "telemetry observer was built for a different network")
        telemetry_observer.attach(simulator)
    network.stats.open_window(sim_config.warmup_cycles, stop_at)

    simulator.run(sim_config.warmup_cycles)
    network.reset_link_utilization()

    from repro.telemetry.live import progress_sink

    sink = progress_sink()
    total_cycles = (sim_config.warmup_cycles + sim_config.measure_cycles
                    + sim_config.drain_cycles)

    wedged = False
    remaining = sim_config.measure_cycles + sim_config.drain_cycles
    abort_after = sim_config.deadlock_abort_cycles
    chunk = sim_config.wedge_poll_interval
    while remaining > 0:
        step = min(chunk, remaining)
        simulator.run(step)
        remaining -= step
        if sink is not None:
            # Live-streaming progress sink (repro.telemetry.live): one
            # throttled, observation-only frame per wedge-poll chunk.
            sink.update(simulator.cycle, total_cycles, network)
        if (
            abort_after
            and network.idle_cycles() > abort_after
            and network.packets_in_flight() > 0
        ):
            wedged = True
            if raise_on_wedge:
                raise SimulationError(
                    "network wedged: no flit moved within the abort window",
                    **_wedge_snapshot(network, simulator.cycle, abort_after))
            break

    if telemetry_observer is not None:
        telemetry_observer.finalize(simulator.cycle)
    if env_profiler is not None:
        from repro.sim.profile import emit_env_summary

        emit_env_summary(env_profiler.report(
            simulator.name, simulator.cycle,
            engine_path=simulator.engine_path,
            fallback_reason=simulator.fallback_reason))
    return SweepPoint(
        injection_rate=injection_rate,
        wedged=wedged,
        link_utilization=network.mean_link_utilization(),
        cycles=simulator.cycle,
        invariant_violations=network.stats.events.get(
            "invariant_violations", 0),
        **network.stats.point_kwargs(sim_config.measure_cycles,
                                     network.topology.num_nodes),
    )


def run_point(network_factory: Callable[[], object],
              traffic_factory: Callable[..., object],
              sim_config: SimulationConfig,
              injection_rate: Optional[float] = None,
              fault_factory: Optional[Callable[[], object]] = None,
              raise_on_wedge: bool = False) -> Tuple[object, SweepPoint]:
    """Simulate one configuration at one load (factory adapter).

    Args:
        network_factory: Builds a fresh network.
        traffic_factory: ``(network, rate, stop_at) -> component`` building
            the traffic source.
        sim_config: Warmup/measure/drain windows, wedge threshold.
        injection_rate: Offered load handed to the traffic factory and
            cross-checked against the built source's configured rate (see
            :func:`simulate_point`).  Required.
        fault_factory: Optional ``() -> FaultInjector`` building the fault
            injection component (docs/FAULTS.md).
        raise_on_wedge: Raise :class:`~repro.errors.SimulationError` with a
            wedge snapshot instead of returning a ``wedged=True`` point.

    Returns:
        The simulated network (for post-hoc inspection) and its point.
    """
    if injection_rate is None:
        raise ConfigurationError(
            "injection_rate is required with a (network, rate, stop_at) "
            "traffic factory")
    network = network_factory()
    stop_at = sim_config.warmup_cycles + sim_config.measure_cycles
    traffic = traffic_factory(network, injection_rate, stop_at)
    injector = fault_factory() if fault_factory is not None else None
    point = simulate_point(network, traffic, sim_config,
                           injection_rate=injection_rate,
                           injector=injector,
                           raise_on_wedge=raise_on_wedge)
    return network, point


def _wedge_snapshot(network, cycle: int, abort_after: int) -> Dict[str, object]:
    """Diagnostic context for an unrecovered-deadlock abort.

    Names the stuck routers and (when SPIN is attached) their FSM states so
    the failure message alone localizes the wedge.
    """
    stuck_routers = sorted(
        router.id for router in network.routers if router.active_vcs)
    context: Dict[str, object] = {
        "cycle": cycle,
        "idle_cycles": abort_after,
        "packets_in_flight": network.packets_in_flight(),
        "stuck_routers": stuck_routers[:8],
        "dead_links": network.dead_link_count,
    }
    if network.spin is not None:
        context["fsm_states"] = {
            router_id: network.spin.controller_of(router_id).state.name
            for router_id in stuck_routers[:8]
        }
        context["frozen_vcs"] = network.spin.frozen_vc_count()
    return context


class SaturationCursor:
    """Incremental saturation-stop decision shared by every sweep driver.

    Push curve points in ascending-rate order; :meth:`push` returns True
    when the curve should stop *after* the pushed point.  Serial sweeps use
    it to stop launching rates; ``latency_curve(jobs=N)`` to stop launching
    waves, and campaigns to truncate results, so ``--jobs 1`` and
    ``--jobs N`` cut a curve at exactly the same point.
    """

    def __init__(self, latency_cap: float = 4.0,
                 points_past_saturation: int = 0) -> None:
        self.latency_cap = latency_cap
        self._extra = points_past_saturation
        self._zero_load: Optional[float] = None

    def push(self, point: SweepPoint) -> bool:
        """Record the next point; True means the curve ends here."""
        if self._zero_load is None:
            self._zero_load = point.mean_latency
        if point.saturated(self._zero_load, self.latency_cap):
            if self._extra <= 0:
                return True
            self._extra -= 1
        return False


def truncate_at_saturation(points: List[SweepPoint],
                           latency_cap: float = 4.0,
                           points_past_saturation: int = 0
                           ) -> List[SweepPoint]:
    """Cut a fully-materialized curve exactly where a serial sweep stops."""
    cursor = SaturationCursor(latency_cap, points_past_saturation)
    kept: List[SweepPoint] = []
    for point in points:
        kept.append(point)
        if cursor.push(point):
            break
    return kept


def _scan_saturation(points: List[SweepPoint], latency_cap: float):
    """Yield ``(point, saturated)`` pairs along a measured curve.

    The single saturation-scan loop shared by :func:`curve_saturation_rate`
    and :func:`curve_saturation_throughput` (previously duplicated inside
    :class:`InjectionSweep`).
    """
    if not points:
        return
    zero_load = points[0].mean_latency
    for point in points:
        yield point, point.saturated(zero_load, latency_cap)


def curve_saturation_rate(points: List[SweepPoint],
                          latency_cap: float = 4.0) -> float:
    """Highest offered load sustained without saturating."""
    sustained = 0.0
    for point, saturated in _scan_saturation(points, latency_cap):
        if saturated:
            break
        sustained = point.injection_rate
    return sustained


def curve_saturation_throughput(points: List[SweepPoint],
                                latency_cap: float = 4.0) -> float:
    """Received throughput at the last non-saturated point."""
    best = 0.0
    for point, saturated in _scan_saturation(points, latency_cap):
        if saturated:
            break
        best = max(best, point.throughput)
    return best


class InjectionSweep:
    """Sweeps offered load upward until the network saturates.

    Args:
        network_factory: Builds a fresh network per point.
        traffic_factory: ``(network, rate, stop_at) -> component``.
        sim_config: Per-point run windows.
        rates: Ascending offered loads in flits/node/cycle.
        latency_cap: Saturation multiplier on the zero-load latency.
        points_past_saturation: Extra points to run beyond saturation (to
            show the divergence in latency curves).
        fault_factory: Optional ``() -> FaultInjector`` applied to every
            point of the sweep (each point gets a fresh injector so the
            fault schedule replays identically at every load).
    """

    def __init__(self, network_factory, traffic_factory,
                 sim_config: SimulationConfig, rates: List[float],
                 latency_cap: float = 4.0,
                 points_past_saturation: int = 0,
                 fault_factory=None) -> None:
        self.network_factory = network_factory
        self.traffic_factory = traffic_factory
        self.sim_config = sim_config
        self.rates = list(rates)
        self.latency_cap = latency_cap
        self.points_past_saturation = points_past_saturation
        self.fault_factory = fault_factory

    def run(self) -> List[SweepPoint]:
        """Simulate ascending loads; stop shortly after saturation."""
        points: List[SweepPoint] = []
        cursor = SaturationCursor(self.latency_cap,
                                  self.points_past_saturation)
        for rate in self.rates:
            _, point = run_point(
                self.network_factory,
                self.traffic_factory,
                self.sim_config,
                injection_rate=rate,
                fault_factory=self.fault_factory,
            )
            points.append(point)
            if cursor.push(point):
                break
        return points

    def saturation_rate(self, points: List[SweepPoint]) -> float:
        """Highest offered load sustained without saturating."""
        return curve_saturation_rate(points, self.latency_cap)

    def saturation_throughput(self, points: List[SweepPoint]) -> float:
        """Received throughput at the last non-saturated point."""
        return curve_saturation_throughput(points, self.latency_cap)
