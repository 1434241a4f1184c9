"""One measured point of a latency-vs-injection curve, and its saturation.

The paper's Figs. 6 and 7 are latency-vs-injection curves; the numbers it
quotes are *saturation throughputs* — the offered load beyond which latency
diverges.

:func:`simulate_point` is the one engine behind every point: it takes
*instantiated* components (a network, a traffic source, optionally a fault
injector) and simulates the warmup/measure/drain windows into a
:class:`SweepPoint`.  A registry design runs through
:meth:`repro.harness.runner.ExperimentSpec.run`, which builds those
components and calls it; a hand-built network calls it directly.
:class:`SaturationCursor` decides where an ascending curve stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.config import SimulationConfig, env_gate
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine_api import create_engine
from repro.sim.profile import PROFILE_ENV, PhaseProfiler, emit_env_summary

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

    This is the single engine behind every point, including
    :meth:`repro.harness.runner.ExperimentSpec.run`.  Build the network
    first, then its traffic (and fault injector), then call this.

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
            in its default raise mode.
        oracle: A pre-configured
            :class:`~repro.verify.oracle.InvariantOracle` to attach
            (overrides ``verify``).  Must be constructed for this
            ``network``.
        telemetry: Attach a recording
            :class:`~repro.telemetry.observer.TelemetryObserver` with
            default configuration.
        telemetry_observer: A pre-configured
            :class:`~repro.telemetry.observer.TelemetryObserver` to
            attach (overrides ``telemetry``) — how ``repro-sim trace``
            keeps the recording for export.  Must be constructed for this
            ``network``.
        engine: Engine name (``reference``/``fast``) driving the cycle
            loop (see :mod:`repro.sim.engine_api`).
        profiler: A :class:`~repro.sim.profile.PhaseProfiler` to attach
            to the engine for this point.  Profiling never changes the
            measured point.

    Each of the last four instruments left unset falls through to its
    environment gate (:func:`repro.config.env_gate`): ``REPRO_VERIFY``,
    ``REPRO_TELEMETRY``, ``REPRO_ENGINE`` and ``REPRO_PROFILE`` (which
    also prints a one-line phase summary to stderr; docs/OBSERVE.md).

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
    if profiler is None and env_gate(PROFILE_ENV):
        profiler = env_profiler = PhaseProfiler()
    if profiler is not None:
        simulator.attach_profiler(profiler)
    stop_at = sim_config.warmup_cycles + sim_config.measure_cycles
    simulator.register(traffic)
    if injector is not None:
        injector.bind(network)
        simulator.register(injector)
    simulator.register(network)
    if oracle is None:
        from repro.verify.oracle import (
            VERIFY_ENV,
            VERIFY_MODES,
            InvariantOracle,
            OracleConfig,
        )

        mode = "raise" if verify else env_gate(VERIFY_ENV, VERIFY_MODES)
        if mode is not None:
            oracle = InvariantOracle(network, OracleConfig(mode=mode))
    if oracle is not None:
        if oracle.network is not network:
            raise ConfigurationError(
                "oracle was built for a different network")
        oracle.attach(simulator)
    if telemetry_observer is None:
        from repro.telemetry.observer import (
            TELEMETRY_ENV,
            TELEMETRY_MODES,
            TelemetryObserver,
            telemetry_config,
        )

        mode = "metrics" if telemetry else env_gate(
            TELEMETRY_ENV, TELEMETRY_MODES, integer=True)
        if mode is not None:
            telemetry_observer = TelemetryObserver(network,
                                                   telemetry_config(mode))
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

    Push curve points in ascending-rate order (the first is the zero-load
    reference); :meth:`push` returns True when the curve should stop
    *after* the pushed point.  ``latency_curve`` uses it to stop launching
    rates or waves and campaigns to truncate results, so ``--jobs 1`` and
    ``--jobs N`` cut a curve at exactly the same point.
    """

    def __init__(self, latency_cap: float = 4.0) -> None:
        self.latency_cap = latency_cap
        self._zero_load: Optional[float] = None

    def push(self, point: SweepPoint) -> bool:
        """Record the next point; True means the curve ends here."""
        if self._zero_load is None:
            self._zero_load = point.mean_latency
        return point.saturated(self._zero_load, self.latency_cap)


def curve_saturation_rate(points: List[SweepPoint],
                          latency_cap: float = 4.0) -> float:
    """Highest offered load sustained without saturating."""
    cursor = SaturationCursor(latency_cap)
    sustained = 0.0
    for point in points:
        if cursor.push(point):
            break
        sustained = point.injection_rate
    return sustained
