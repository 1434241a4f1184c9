"""Telemetry for SPIN simulations: metrics, spans, traces, reports.

The observability counterpart of :mod:`repro.verify` — same zero-cost
simulator-observer hook, but *recording* instead of asserting.  Layers
(see docs/TELEMETRY.md):

* :mod:`repro.telemetry.registry` — typed metric families (counters,
  gauges, histograms) keyed by component.
* :mod:`repro.telemetry.spans` — SPIN control-plane span reconstruction
  from FSM transitions (detection/recovery latency per episode).
* :mod:`repro.telemetry.observer` — the per-cycle recorder; enabled via
  ``ExperimentSpec(telemetry=True)``, ``--telemetry``, or the
  ``REPRO_TELEMETRY`` environment variable.
* :mod:`repro.telemetry.export` — JSONL event log and Chrome
  ``trace_event`` exporters plus the dependency-free trace validator.
* :mod:`repro.telemetry.report` — ``repro-sim report`` analytics: span
  tables, hot links, wedge timeline, occupancy heatmap.
* :mod:`repro.telemetry.live` — the live observability plane: worker
  frames, supervisor aggregation, rolling ``status.json``
  (docs/OBSERVE.md).
* :mod:`repro.telemetry.watch` / :mod:`repro.telemetry.prometheus` —
  ``cli watch`` rendering and Prometheus text exposition over the live
  status.
"""

from repro.telemetry.export import (
    CHROME_FORMAT,
    JSONL_FORMAT,
    build_records,
    chrome_trace,
    read_jsonl,
    validate_chrome_trace,
    write_jsonl,
)
from repro.telemetry.live import (
    STATUS_FORMAT,
    STREAM_FORMAT,
    LiveStatusPlane,
    StreamAggregator,
    TelemetryShipper,
    read_stream_log,
    stream_chrome_trace,
    stream_summary,
)
from repro.telemetry.observer import (
    TelemetryConfig,
    TelemetryObserver,
)
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.report import TraceReport
from repro.telemetry.spans import SpanTracer, SpinSpan

__all__ = [
    "CHROME_FORMAT",
    "JSONL_FORMAT",
    "STATUS_FORMAT",
    "STREAM_FORMAT",
    "Counter",
    "Gauge",
    "Histogram",
    "LiveStatusPlane",
    "MetricsRegistry",
    "SpanTracer",
    "SpinSpan",
    "StreamAggregator",
    "TelemetryConfig",
    "TelemetryObserver",
    "TelemetryShipper",
    "TraceReport",
    "build_records",
    "chrome_trace",
    "read_jsonl",
    "read_stream_log",
    "stream_chrome_trace",
    "stream_summary",
    "validate_chrome_trace",
    "write_jsonl",
]
