"""The telemetry observer: recording counterpart of the invariant oracle.

:class:`TelemetryObserver` watches one network from inside the cycle loop
through the same zero-cost hook the oracle uses
(:meth:`repro.sim.engine.Simulator.register_observer`): when telemetry is
disabled nothing is registered and the hot loop is byte-for-byte the
schedule it always was.  When enabled it records three things:

* **metric samples** — every ``sample_interval`` cycles, per-router VC
  occupancy and stalled-VC counts, per-link flit/SM utilization deltas,
  NIC backlog, packets in flight, frozen VCs, and the delta of every
  ``network.stats`` event counter, all folded into a
  :class:`~repro.telemetry.registry.MetricsRegistry` and kept as compact
  JSON-safe sample records for the exporters;
* **SPIN spans** — the :class:`~repro.telemetry.spans.SpanTracer` runs
  every cycle (it needs consecutive FSM states) and streams closed spans
  into the registry's detection/recovery-latency histograms;
* **per-packet hop traces** — optional (``packet_traces=True``): wraps
  ``network.routing.on_hop`` and ``network.deliver`` at attach time,
  exactly the oracle's wrapping idiom.

Deterministic merge into sweep results: span and sample tallies are
counted into ``network.stats.events`` under ``telemetry_*`` keys, from
where they flow into :class:`~repro.stats.sweep.SweepPoint.events` and the
``repro.sweep-results/v1`` JSON unchanged — the counts are a pure function
of the spec, so ``--jobs N`` sweeps stay byte-identical.

Enable without code changes via ``REPRO_TELEMETRY`` (see
:func:`telemetry_from_env`): ``1``/``on``/``metrics`` records metrics and
spans; ``full`` adds per-packet hop traces; an integer > 1 sets the sample
interval.  See docs/TELEMETRY.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import ENV_OFF_VALUES
from repro.errors import ConfigurationError
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanTracer, SpinSpan

#: Hard cap on retained hop-trace records (full traces of a saturated run
#: would otherwise dwarf the simulation itself).
MAX_HOP_RECORDS = 200_000


@dataclass
class TelemetryConfig:
    """Tuning knobs of :class:`TelemetryObserver`.

    Attributes:
        sample_interval: Cycles between metric samples (1 = every cycle).
        metrics: Record per-component metric samples.
        spans: Trace SPIN control-plane episodes (needs a SPIN network to
            produce anything; harmless otherwise).
        packet_traces: Record one event per packet hop and delivery.
            Off by default — hop traces are the one telemetry stream whose
            volume scales with traffic, and their uids are process-local.
        gauge_capacity: Retained samples per gauge series.
        max_samples: Stop recording new sample records beyond this many
            (the registry keeps aggregating; only the exporter stream is
            capped).
    """

    sample_interval: int = 64
    metrics: bool = True
    spans: bool = True
    packet_traces: bool = False
    gauge_capacity: int = 4096
    max_samples: int = 100_000

    def __post_init__(self) -> None:
        if self.sample_interval < 1:
            raise ConfigurationError("sample_interval must be >= 1",
                                     sample_interval=self.sample_interval)
        if self.max_samples < 1:
            raise ConfigurationError("max_samples must be >= 1",
                                     max_samples=self.max_samples)


class TelemetryObserver:
    """Per-cycle metric/span/hop recorder for one network.

    Usage::

        telemetry = TelemetryObserver(network, TelemetryConfig())
        telemetry.attach(simulator)
        simulator.run(...)
        telemetry.finalize(simulator.cycle)
        spans = telemetry.spans          # closed SpinSpan records
        samples = telemetry.samples      # JSON-safe sample dicts
    """

    def __init__(self, network,
                 config: Optional[TelemetryConfig] = None) -> None:
        self.network = network
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry(self.config.gauge_capacity)
        #: JSON-safe metric sample records, in cycle order.
        self.samples: List[Dict[str, object]] = []
        #: Closed spans, in close order (open ones close via finalize()).
        self.spans: List[SpinSpan] = []
        #: Hop/delivery records when ``packet_traces``:
        #: ``[cycle, "hop"|"deliver", uid, router, port]``.
        self.hops: List[list] = []
        self._attached = False
        self._finalized = False
        self._tracer: Optional[SpanTracer] = None
        if self.config.spans and network.spin is not None:
            self._tracer = SpanTracer(network.spin)
            self._tracer.on_span_close = self._on_span_close
        # Delta baselines.
        self._last_counts = (0, 0, 0, 0)
        self._last_events: Dict[str, int] = {}
        self._link_marks: Dict[Tuple[int, int], Tuple[int, int, int]] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, simulator) -> "TelemetryObserver":
        """Register as a simulator observer (and hook hop tracing)."""
        if self._attached:
            raise ConfigurationError("telemetry observer already attached")
        self._attached = True
        if self.config.packet_traces:
            self._hook_packet_traces()
        simulator.register_observer(self)
        return self

    def _hook_packet_traces(self) -> None:
        network = self.network
        routing = network.routing
        inner_hop = routing.on_hop
        inner_deliver = network.deliver
        hops = self.hops

        def traced_hop(packet, router, outport):
            if len(hops) < MAX_HOP_RECORDS:
                hops.append([network.now, "hop", packet.uid, router.id,
                             outport])
            inner_hop(packet, router, outport)

        def traced_deliver(packet, router_id, eject_port, now):
            if len(hops) < MAX_HOP_RECORDS:
                hops.append([now, "deliver", packet.uid, router_id,
                             eject_port])
            inner_deliver(packet, router_id, eject_port, now)

        routing.on_hop = traced_hop
        network.deliver = traced_deliver

    # ------------------------------------------------------------------
    # Observer hook
    # ------------------------------------------------------------------
    def phase_collect(self, cycle: int) -> None:
        if self._tracer is not None:
            self._tracer.observe(cycle)
        if self.config.metrics and cycle % self.config.sample_interval == 0:
            self._sample(cycle)

    def finalize(self, cycle: int) -> None:
        """Close open spans and take a final sample; idempotent."""
        if self._finalized:
            return
        self._finalized = True
        if self._tracer is not None:
            self._tracer.finish(cycle)
        if (self.config.metrics
                and (not self.samples
                     or self.samples[-1]["cycle"] != cycle)):
            self._sample(cycle)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _sample(self, cycle: int) -> None:
        network = self.network
        stats = network.stats
        registry = self.registry
        now = network.now

        counts = (stats.packets_created, stats.packets_injected,
                  stats.packets_delivered, stats.packets_lost)
        deltas = [cur - before
                  for cur, before in zip(counts, self._last_counts)]
        self._last_counts = counts

        occupancy: List[int] = []
        stalled: List[int] = []
        frozen = 0
        for router in network.routers:
            active = router.active_vcs
            occupancy.append(active)
            stuck = 0
            if active:
                for _, vcs in router.all_inports():
                    for vc in vcs:
                        if vc.packet is None:
                            continue
                        if vc.frozen:
                            frozen += 1
                        elif vc.fully_arrived(now):
                            # Resident, whole, and not pinned for a spin:
                            # waiting on a credit/grant — a credit stall.
                            stuck += 1
            stalled.append(stuck)
            registry.gauge("router_occupancy", router.id).record(
                cycle, active)
            if stuck:
                registry.counter("credit_stalls", router.id).inc(stuck)

        links: List[list] = []
        for key in sorted(network.links):
            link = network.links[key]
            mark = self._link_marks.get(key)
            current = (link.measure_from, link.flit_cycles, link.sm_cycles)
            self._link_marks[key] = current
            if mark is None or mark[0] != current[0]:
                continue  # first sight or a utilization reset: new epoch
            flit_delta = current[1] - mark[1]
            sm_delta = current[2] - mark[2]
            if flit_delta or sm_delta:
                links.append([key[0], key[1], flit_delta, sm_delta])
                registry.gauge("link_flits", key).record(cycle, flit_delta)
                if sm_delta:
                    registry.gauge("link_sms", key).record(cycle, sm_delta)

        events: Dict[str, int] = {}
        for name in sorted(stats.events):
            value = stats.events[name]
            if name.startswith("telemetry_"):
                continue  # our own merge counters are not an observation
            delta = value - self._last_events.get(name, 0)
            if delta:
                events[name] = delta
                self._last_events[name] = value

        in_flight = sum(occupancy)
        backlog = network.total_backlog()
        registry.gauge("in_flight").record(cycle, in_flight)
        registry.gauge("nic_backlog").record(cycle, backlog)
        registry.gauge("frozen_vcs").record(cycle, frozen)
        registry.histogram(
            "router_occupancy",
            edges=(0, 1, 2, 4, 8, 16, 32)).observe(max(occupancy) if
                                                   occupancy else 0)

        stats.count("telemetry_samples")
        if len(self.samples) >= self.config.max_samples:
            return
        self.samples.append({
            "type": "sample",
            "cycle": cycle,
            "created": deltas[0],
            "injected": deltas[1],
            "delivered": deltas[2],
            "lost": deltas[3],
            "in_flight": in_flight,
            "backlog": backlog,
            "frozen": frozen,
            "occupancy": occupancy,
            "stalled": stalled,
            "links": links,
            "events": events,
        })

    # ------------------------------------------------------------------
    # Span streaming
    # ------------------------------------------------------------------
    def _on_span_close(self, span: SpinSpan) -> None:
        self.spans.append(span)
        stats = self.network.stats
        registry = self.registry
        if span.kind == "frozen":
            stats.count("telemetry_frozen_spans")
            if span.recovery_latency is not None:
                registry.histogram("frozen_residency").observe(
                    span.recovery_latency)
            return
        stats.count("telemetry_spans")
        if span.outcome is not None:
            stats.count(f"telemetry_spans_{span.outcome}")
        stats.count("telemetry_span_spins", len(span.spin_cycles))
        stats.count("telemetry_detection_cycles", span.detection_latency)
        registry.histogram("detection_latency").observe(
            span.detection_latency)
        registry.histogram("span_spins",
                           edges=(0, 1, 2, 4, 8, 16)).observe(
            len(span.spin_cycles))
        latency = span.recovery_latency
        if latency is not None:
            stats.count("telemetry_recovery_cycles", latency)
            registry.histogram("recovery_latency").observe(latency)


#: ``REPRO_TELEMETRY`` values that enable telemetry (lowercased).
_ENV_ON = ("1", "on", "true", "metrics", "spans", "full")


def config_from_env_value(value: str) -> Optional[TelemetryConfig]:
    """Parse one ``REPRO_TELEMETRY`` value into a config (None = off).

    Accepted (case-insensitive): ``1``/``on``/``true``/``metrics``/
    ``spans`` — metrics + spans at the default interval; ``full`` — also
    per-packet hop traces; an integer > 1 — metrics + spans sampled every
    that many cycles; empty or an off value (``0``, ``off``, ...) — None.
    Anything else raises :class:`ConfigurationError`.
    """
    text = value.strip().lower()
    if text in ENV_OFF_VALUES:
        return None
    if text in _ENV_ON:
        return TelemetryConfig(packet_traces=(text == "full"))
    try:
        interval = int(text)
    except ValueError:
        interval = 0
    if interval < 1:
        raise ConfigurationError(
            f"REPRO_TELEMETRY={text!r} is not recognized; accepted: "
            f"{', '.join(_ENV_ON)}, an integer sample interval, or off: "
            f"{', '.join(sorted(ENV_OFF_VALUES - {''}))}")
    if interval == 1:
        return TelemetryConfig()
    return TelemetryConfig(sample_interval=interval)


def telemetry_from_env(network) -> Optional[TelemetryObserver]:
    """Build an observer if ``REPRO_TELEMETRY`` asks for one, else None."""
    config = config_from_env_value(os.environ.get("REPRO_TELEMETRY", ""))
    if config is None:
        return None
    return TelemetryObserver(network, config)
