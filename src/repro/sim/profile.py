"""Phase profiler for the simulation engines (``repro.profile/v1``).

Answers "where do the cycles go?" for both engines: per-phase wall time
for the reference :class:`~repro.sim.engine.Simulator` schedule, plus
fast-core counters (router cycles actually run vs skipped, controller
ticks, cycles fast-forwarded through quiescence) for
:class:`~repro.sim.fastcore.FastSimulator`.  A phase run by several
components is split into one part per component, so ``inject`` reads as
``traffic`` generation plus ``network`` NIC->VC admission.

Overhead contract: the profiler costs *nothing* when detached.  The
engine wraps its phase schedule with timing closures only at
schedule-build time and only when a profiler is attached
(:meth:`~repro.sim.engine.Simulator.attach_profiler`); with no profiler
the built schedule is exactly the pre-profiler one, and fast-core
counter sites are guarded by a single ``is not None`` check on paths
that already do real work.  ``benchmarks/perf`` measures what attaching
one costs: its untraced passes run detached, its traced passes attach a
profiler to every point, and ``trace_overhead_pct`` is the difference.

Enable per-call (``simulate_point(..., profiler=...)``, ``cli profile``,
``cli run --profile``) or ambiently via ``REPRO_PROFILE=1``, which
prints a one-line phase summary to stderr after every point.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, Iterable, List, Optional

from repro.config import ENV_OFF_VALUES

#: Version tag of profile reports.
PROFILE_SCHEMA = "repro.profile/v1"

#: Environment toggle: truthy values attach a profiler to every
#: ``simulate_point`` call and print a summary line to stderr.
PROFILE_ENV = "REPRO_PROFILE"


def _rounded(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds, 6)


class PhaseProfiler:
    """Accumulates per-phase wall time, call counts, and counters.

    One instance may span several runs (e.g. warmup + measure + drain of
    one point, or a whole sweep) — times and counts accumulate.
    """

    def __init__(self) -> None:
        self.phase_seconds: Dict[str, float] = {}
        self.phase_calls: Dict[str, int] = {}
        #: Datapath skip/run accounting of the ``fast`` engine's SoA core
        #: (plus the control loop's counts on that path).  Empty whenever
        #: the object datapath ran, which is what benchmarks/perf reads it
        #: for; the control loop's counts on that datapath are kept apart
        #: in ``control_counters`` and merged by :meth:`report`.
        self.counters: Dict[str, int] = {}
        self.control_counters: Dict[str, int] = {}
        #: phase -> part -> seconds: the split of a phase.  A phase run by
        #: several components gets one part per component (``inject`` into
        #: ``traffic`` generation and ``network`` NIC->VC admission); a
        #: component may instead lap its own parts (``control`` into
        #: ``executor`` / ``sm_delivery`` / ``tick`` / ``outbox``), and then
        #: gets no part of its own, so the parts never count a second twice.
        self.part_seconds: Dict[str, Dict[str, float]] = {}
        self._laps = 0
        #: A point's fixed cost before its first cycle, by stage: ``build``
        #: (``ExperimentSpec.build``: network, traffic, injector — recorded
        #: by ``ExperimentSpec.run``) and ``compile`` (the ``fast`` engine's
        #: envelope check, SoA core and schedule).  A stage nobody timed is
        #: absent.
        self.setup_seconds: Dict[str, float] = {}

    def wrap_phase(self, name: str, bound_methods: Iterable) -> object:
        """Fuse a phase's bound methods into one timed callable.

        The engine swaps this in for the phase's method list when the
        schedule is built with a profiler attached; each invocation adds
        the phase's wall time and one call.  With more than one method,
        each also adds its own time to the part named by its component's
        ``profile_part`` attribute (or class name) — unless that call
        lapped parts itself (:meth:`lap`), which already split its time.
        """
        methods = tuple(bound_methods)
        seconds = self.phase_seconds
        calls = self.phase_calls
        seconds.setdefault(name, 0.0)
        calls.setdefault(name, 0)
        perf = time.perf_counter

        if len(methods) > 1:
            parts = self.part_seconds.setdefault(name, {})
            timed = tuple((method, _part_name(method)) for method in methods)

            def timed_parts(cycle: int) -> None:
                start = lap = perf()
                for method, part in timed:
                    laps = self._laps
                    method(cycle)
                    now = perf()
                    if self._laps == laps:
                        parts[part] = parts.get(part, 0.0) + now - lap
                    lap = now
                seconds[name] += lap - start
                calls[name] += 1

            return timed_parts

        def timed_phase(cycle: int) -> None:
            start = perf()
            for method in methods:
                method(cycle)
            seconds[name] += perf() - start
            calls[name] += 1

        return timed_phase

    def record_setup(self, stage: str, seconds: float) -> None:
        """Add wall time to one stage of the point's fixed cost."""
        self.setup_seconds[stage] = (self.setup_seconds.get(stage, 0.0)
                                     + seconds)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a named counter (fast-core skip/run accounting)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def count_control(self, name: str, amount: int = 1) -> None:
        """Bump a control-loop counter on the object datapath."""
        self.control_counters[name] = (self.control_counters.get(name, 0)
                                       + amount)

    def lap(self, phase: str, part: str, since: float) -> float:
        """Add the time since ``since`` to a part of a phase; returns now."""
        now = time.perf_counter()
        self._laps += 1
        parts = self.part_seconds.setdefault(phase, {})
        parts[part] = parts.get(part, 0.0) + now - since
        return now

    def report(self, engine: str, cycles: int,
               wall_seconds: Optional[float] = None,
               engine_path: Optional[str] = None,
               fallback_reason: Optional[str] = None) -> Dict[str, object]:
        """One ``repro.profile/v1`` record for this accumulation.

        ``engine_path`` says which datapath actually ran (``"soa"`` or
        ``"reference-schedule"``; ``None`` when the caller does not know)
        and ``fallback_reason`` why a ``fast`` request fell back.
        ``build_s`` / ``compile_s`` are the point's fixed cost before its
        first cycle (``None`` for a stage nobody timed).
        """
        total = sum(self.phase_seconds.values())
        phases = {}
        for name in sorted(self.phase_seconds):
            seconds = self.phase_seconds[name]
            phases[name] = {
                "seconds": round(seconds, 6),
                "calls": self.phase_calls.get(name, 0),
                "share": round(seconds / total, 4) if total > 0 else 0.0,
            }
            if name in self.part_seconds:
                phases[name]["parts"] = {
                    part: round(spent, 6) for part, spent
                    in sorted(self.part_seconds[name].items())}
        return {
            "schema": PROFILE_SCHEMA,
            "engine": engine,
            "engine_path": engine_path,
            "fallback_reason": fallback_reason,
            "cycles": cycles,
            "build_s": _rounded(self.setup_seconds.get("build")),
            "compile_s": _rounded(self.setup_seconds.get("compile")),
            "phase_seconds_total": round(total, 6),
            "wall_seconds": _rounded(wall_seconds),
            "phases": phases,
            "counters": dict(sorted({**self.counters,
                                     **self.control_counters}.items())),
        }


def _part_name(method) -> str:
    """The part a phase hook's time goes to: its component's role."""
    owner = getattr(method, "__self__", method)
    return getattr(owner, "profile_part", type(owner).__name__)


def profiler_from_env(env: Optional[Dict[str, str]] = None
                      ) -> Optional[PhaseProfiler]:
    """A fresh profiler when ``REPRO_PROFILE`` is truthy, else ``None``."""
    value = (env if env is not None else os.environ).get(PROFILE_ENV, "")
    if value.strip().lower() in ENV_OFF_VALUES:
        return None
    return PhaseProfiler()


def _path_text(report: Dict[str, object]) -> str:
    """`` path=<engine_path> (<fallback_reason>)`` for the text renderings."""
    path = report.get("engine_path")
    if path is None:
        return ""
    reason = report.get("fallback_reason")
    return f" path={path} ({reason})" if reason else f" path={path}"


def _setup_text(report: Dict[str, object], digits: int) -> str:
    """``build=…s compile=…s `` for the stages the report has timed."""
    return "".join(
        f"{stage}={report[key]:.{digits}f}s  "
        for stage, key in (("build", "build_s"), ("compile", "compile_s"))
        if report.get(key) is not None)


def render_report(report: Dict[str, object]) -> str:
    """Human-readable phase table for one profile report."""
    lines: List[str] = []
    lines.append(f"engine={report['engine']}{_path_text(report)}  "
                 f"cycles={report['cycles']}  "
                 f"{_setup_text(report, 4)}"
                 f"phase-time={report['phase_seconds_total']:.4f}s")
    lines.append(f"{'phase':<12} {'seconds':>10} {'share':>7} {'calls':>10}")
    lines.append("-" * 42)
    for name, row in report.get("phases", {}).items():
        lines.append(f"{name:<12} {row['seconds']:>10.4f} "
                     f"{row['share'] * 100:>6.1f}% {row['calls']:>10}")
        for part, spent in row.get("parts", {}).items():
            lines.append(f"  .{part:<12}{spent:>8.4f}")
    counters = report.get("counters") or {}
    if counters:
        lines.append("")
        lines.append(f"{'counter':<28} {'value':>12}")
        lines.append("-" * 42)
        for name, value in counters.items():
            lines.append(f"{name:<28} {value:>12}")
    return "\n".join(lines)


def summary_line(report: Dict[str, object]) -> str:
    """One-line phase summary (the ``REPRO_PROFILE=1`` stderr format)."""
    parts = [f"{name}={row['share'] * 100:.0f}%"
             for name, row in report.get("phases", {}).items()]
    return (f"[profile] engine={report['engine']}{_path_text(report)} "
            f"cycles={report['cycles']} {_setup_text(report, 3)}"
            f"phase-time={report['phase_seconds_total']:.3f}s "
            + " ".join(parts))


def emit_env_summary(report: Dict[str, object]) -> None:
    """Print the env-mode summary line to stderr (never raises)."""
    try:
        print(summary_line(report), file=sys.stderr)
    except OSError:  # pragma: no cover - stderr gone
        pass


def write_report(path: str, payload: Dict[str, object]) -> None:
    """Write a profile payload as stable, diffable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
