"""Trace analysis: the ``repro-sim report`` backend.

:class:`TraceReport` loads one ``repro.telemetry/v1`` JSONL log
(:func:`repro.telemetry.export.read_jsonl`) and derives the summaries the
CLI prints: SPIN episode tables with detection/recovery latency
distributions (reusing :class:`repro.stats.collectors.LatencySummary`, so
percentiles follow the same nearest-rank rule as simulation latencies),
top-k hot links by flit traffic, a wedge timeline (sampled intervals where
traffic was in flight but nothing was delivered), and an ASCII occupancy
heatmap for mesh designs.

Everything operates on the recorded log alone — reports are reproducible
from the artifact without rerunning the simulation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.stats.collectors import LatencySummary
from repro.telemetry.export import read_jsonl
from repro.telemetry.spans import SpinSpan

#: Shade ramp for the occupancy heatmap (low -> high).
HEAT_RAMP = " .:-=+*#%@"


def sm_fate_lines(events: Dict[str, int]) -> List[str]:
    """The "SM fate" breakdown: what became of the probes and moves sent.

    Reads only the counters a run already keeps in
    ``NetworkStats.events`` / ``SweepPoint.events`` (``probes_sent``,
    ``probes_returned``, ``probes_stale``, ``probes_dropped_<reason>``, the
    same for ``moves``, ``kill_moves_sent``, ``freeze_timeouts``,
    ``watchdog_fires``).  Empty when no probe was ever sent.  A forked
    probe is one ``sent`` and several fates, so the parts need not add up.
    """
    if not events.get("probes_sent"):
        return []
    lines = ["SM fate:"]
    for kind in ("probes", "moves"):
        prefix = f"{kind}_dropped_"
        dropped = " ".join(
            f"{name[len(prefix):]}={count}"
            for name, count in sorted(events.items())
            if name.startswith(prefix))
        lines.append(
            f"  {kind:<7} sent={events.get(kind + '_sent', 0)} "
            f"returned={events.get(kind + '_returned', 0)} "
            f"stale={events.get(kind + '_stale', 0)}"
            + (f"  dropped: {dropped}" if dropped else ""))
    lines.append(
        f"  kill_moves sent={events.get('kill_moves_sent', 0)}  "
        f"freeze_timeouts={events.get('freeze_timeouts', 0)}  "
        f"watchdog_fires={events.get('watchdog_fires', 0)}")
    return lines


class TraceReport:
    """Derived views over one recorded telemetry log."""

    def __init__(self, records: List[Dict[str, object]]) -> None:
        self.records = records
        self.header: Dict[str, object] = records[0]
        self.samples = [r for r in records if r.get("type") == "sample"]
        self.spans = [SpinSpan.from_dict(r) for r in records
                      if r.get("type") == "span"]
        self.summary: Dict[str, object] = next(
            (r for r in records if r.get("type") == "summary"), {})
        self.hop_count = sum(1 for r in records
                             if r.get("type") in ("hop", "deliver"))

    @classmethod
    def load(cls, path: str) -> "TraceReport":
        """Read and index a ``repro.telemetry/v1`` log."""
        return cls(read_jsonl(path))

    # ------------------------------------------------------------------
    # Span analytics
    # ------------------------------------------------------------------
    @property
    def episodes(self) -> List[SpinSpan]:
        """The ``spin_episode`` spans, in close order."""
        return [span for span in self.spans if span.kind == "spin_episode"]

    @property
    def frozen_spans(self) -> List[SpinSpan]:
        """The FROZEN residency spans, in close order."""
        return [span for span in self.spans if span.kind == "frozen"]

    def outcome_counts(self) -> Dict[str, int]:
        """Episode count per outcome (open episodes under ``"open"``)."""
        counts: Dict[str, int] = {}
        for span in self.episodes:
            outcome = span.outcome or "open"
            counts[outcome] = counts.get(outcome, 0) + 1
        return dict(sorted(counts.items()))

    def detection_latencies(self) -> LatencySummary:
        """Distribution of per-episode detection latencies."""
        return LatencySummary.from_samples(
            [span.detection_latency for span in self.episodes])

    def recovery_latencies(self) -> LatencySummary:
        """Distribution of per-episode recovery latencies (closed only)."""
        return LatencySummary.from_samples(
            [span.recovery_latency for span in self.episodes
             if span.recovery_latency is not None])

    def total_spins(self) -> int:
        """Synchronized spins executed across all episodes."""
        return sum(len(span.spin_cycles) for span in self.episodes)

    def event_totals(self) -> Dict[str, int]:
        """``NetworkStats.events`` as of the last sample (the samples carry
        per-interval deltas)."""
        totals: Counter = Counter()
        for sample in self.samples:
            totals.update(sample.get("events") or {})
        return totals

    # ------------------------------------------------------------------
    # Link and occupancy analytics
    # ------------------------------------------------------------------
    def link_totals(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """``(router, port) -> (flits, sm_flits)`` summed over samples."""
        totals: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for sample in self.samples:
            for router, port, flits, sms in sample.get("links", ()):
                key = (router, port)
                old = totals.get(key, (0, 0))
                totals[key] = (old[0] + flits, old[1] + sms)
        return totals

    def hot_links(self, k: int = 8) -> List[Tuple[Tuple[int, int], int, int]]:
        """Top-``k`` links by total flit traffic: ``(key, flits, sms)``.

        Ties break on the link key so the ranking is deterministic.
        """
        totals = self.link_totals()
        ranked = sorted(totals.items(),
                        key=lambda item: (-item[1][0], item[0]))
        return [(key, flits, sms) for key, (flits, sms) in ranked[:k]]

    def occupancy_totals(self) -> List[float]:
        """Mean sampled VC occupancy per router (empty without samples)."""
        if not self.samples:
            return []
        sums: Optional[List[float]] = None
        for sample in self.samples:
            occupancy = sample.get("occupancy") or []
            if sums is None:
                sums = [0.0] * len(occupancy)
            for index, value in enumerate(occupancy):
                sums[index] += value
        if not sums:
            return []
        count = len(self.samples)
        return [total / count for total in sums]

    def wedge_timeline(self) -> List[Tuple[int, int]]:
        """Sampled ``[start, end]`` cycle intervals of zero-progress.

        An interval covers consecutive samples where packets were in
        flight but none were delivered since the previous sample — the
        observable signature of a wedged (or recovering) network at the
        sampling resolution.
        """
        intervals: List[Tuple[int, int]] = []
        open_start: Optional[int] = None
        last_cycle = 0
        for sample in self.samples:
            cycle = int(sample["cycle"])
            stuck = (cycle > 0
                     and sample.get("delivered", 0) == 0
                     and sample.get("in_flight", 0) > 0)
            if stuck and open_start is None:
                open_start = cycle
            elif not stuck and open_start is not None:
                intervals.append((open_start, last_cycle))
                open_start = None
            last_cycle = cycle
        if open_start is not None:
            intervals.append((open_start, last_cycle))
        return intervals

    def heatmap(self, width: int = 0) -> str:
        """ASCII per-router occupancy heatmap.

        Mesh designs (header carries ``topology == "mesh"`` and
        ``mesh_side``) render as a 2-D grid in row-major router order;
        anything else renders as one shade strip.  Each cell maps the
        router's mean occupancy onto :data:`HEAT_RAMP`, normalized to the
        hottest router.
        """
        means = self.occupancy_totals()
        if not means:
            return "(no samples)"
        hottest = max(means)
        if width <= 0:
            if (self.header.get("topology") == "mesh"
                    and self.header.get("mesh_side")):
                width = int(self.header["mesh_side"])
            else:
                width = len(means)
        shades = []
        for value in means:
            if hottest <= 0:
                shades.append(HEAT_RAMP[0])
            else:
                index = int(round(value / hottest * (len(HEAT_RAMP) - 1)))
                shades.append(HEAT_RAMP[index])
        rows = ["".join(shades[offset:offset + width])
                for offset in range(0, len(shades), width)]
        return "\n".join(rows)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, top_links: int = 8) -> str:
        """The full human-readable report ``repro-sim report`` prints."""
        lines: List[str] = []
        header = self.header
        describe = ", ".join(
            f"{key}={header[key]}"
            for key in ("design", "pattern", "injection_rate", "seed",
                        "cycles")
            if key in header)
        lines.append(f"telemetry report ({describe})" if describe
                     else "telemetry report")
        lines.append(f"  samples={len(self.samples)} "
                     f"spans={len(self.spans)} hops={self.hop_count}")

        episodes = self.episodes
        lines.append("")
        lines.append(f"SPIN episodes: {len(episodes)} "
                     f"(frozen residencies: {len(self.frozen_spans)}, "
                     f"spins executed: {self.total_spins()})")
        if episodes:
            outcomes = " ".join(f"{name}={count}" for name, count
                                in self.outcome_counts().items())
            lines.append(f"  outcomes: {outcomes}")
            detect = self.detection_latencies()
            lines.append(
                f"  detection latency: mean={detect.mean:.1f} "
                f"p50={detect.p50:.0f} p99={detect.p99:.0f} "
                f"max={detect.maximum} cycles")
            recover = self.recovery_latencies()
            if recover.count:
                lines.append(
                    f"  recovery latency:  mean={recover.mean:.1f} "
                    f"p50={recover.p50:.0f} p99={recover.p99:.0f} "
                    f"max={recover.maximum} cycles")
            lines.append("  router  vnet  start..end      detect  recover"
                         "  spins  outcome")
            for span in episodes:
                end = span.end_cycle if span.end_cycle is not None else "-"
                recovery = (span.recovery_latency
                            if span.recovery_latency is not None else "-")
                lines.append(
                    f"  {span.router:>6}  {span.vnet:>4}  "
                    f"{span.start_cycle:>6}..{end:<6}  "
                    f"{span.detection_latency:>6}  {recovery:>7}  "
                    f"{len(span.spin_cycles):>5}  {span.outcome or 'open'}")

        fate = sm_fate_lines(self.event_totals())
        if fate:
            lines.append("")
            lines.extend(fate)

        hot = self.hot_links(top_links)
        lines.append("")
        if hot:
            lines.append(f"hot links (top {len(hot)} by flits):")
            lines.append("  router  port    flits  sm_flits")
            for (router, port), flits, sms in hot:
                lines.append(f"  {router:>6}  {port:>4}  {flits:>7}  "
                             f"{sms:>8}")
        else:
            lines.append("hot links: none recorded")

        wedges = self.wedge_timeline()
        lines.append("")
        if wedges:
            lines.append(f"wedge timeline ({len(wedges)} zero-progress "
                         "interval(s), sampled):")
            for start, end in wedges:
                lines.append(f"  cycles {start}..{end}")
        else:
            lines.append("wedge timeline: no zero-progress intervals")

        lines.append("")
        lines.append("occupancy heatmap (mean VCs per router, "
                     f"ramp '{HEAT_RAMP}'):")
        for row in self.heatmap().splitlines():
            lines.append(f"  |{row}|")
        return "\n".join(lines)
