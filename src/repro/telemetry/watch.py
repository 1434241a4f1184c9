"""Rendering for ``cli watch`` and campaign-level ``cli report``.

Dependency-free, plain-ANSI terminal output over the live status plane's
artifacts (:mod:`repro.telemetry.live`): the rolling ``status.json``, the
campaign ``manifest.json``/``journal.jsonl``, and the ``stream.jsonl``
frame log.  Rendering is pure (data in, string out) so it is unit-testable
without a terminal or a running campaign; ``cli watch`` adds only the
clear-screen/sleep loop on top.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.telemetry.live import (
    STATUS_NAME,
    STREAM_LOG_NAME,
    read_stream_log,
    stream_summary,
)
from repro.telemetry.report import sm_fate_lines

#: Worker/point state glyphs for the compact progress strip.
_POINT_GLYPHS = {"pending": ".", "running": "r", "ok": "#",
                 "resumed": "R", "failed": "x"}


def load_status(directory: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Load ``status.json`` from a campaign directory; ``None`` if absent
    or unreadable (e.g. mid-replace on exotic filesystems)."""
    path = Path(directory) / STATUS_NAME
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError):
        return None
    return payload if isinstance(payload, dict) else None


def journal_fallback_status(directory: Union[str, Path]
                            ) -> Optional[Dict[str, object]]:
    """Synthesize a minimal status payload from manifest + journal.

    Lets ``cli watch`` show *something* for campaigns run before the
    status plane existed (or with ``--no-stream``): point totals and
    ok/failed states, but no worker health or live progress.
    """
    from repro.harness.campaign import CampaignJournal, load_manifest

    directory = Path(directory)
    try:
        specs, _, _ = load_manifest(directory)
    except Exception:
        return None
    keys = [spec.content_key() for spec in specs]
    records, _ = CampaignJournal(directory).load()
    by_key = {record["key"]: record for record in records}
    points = {}
    for index, (key, spec) in enumerate(zip(keys, specs)):
        record = by_key.get(key)
        status = "pending"
        if record is not None:
            status = "ok" if record.get("status") == "ok" else "failed"
        points[key] = {"index": index, "rate": spec.injection_rate,
                       "status": status, "cycles_done": 0,
                       "cycles_total": None, "worker": None,
                       "attempts": 0, "delivered": 0, "injected": 0,
                       "spins": 0, "error_class": None}
    states = [entry["status"] for entry in points.values()]
    done = sum(1 for state in states if state != "pending")
    failed = sum(1 for state in states if state == "failed")
    return {
        "schema": "journal-fallback",
        "status": "unknown (no status.json; journal view)",
        "updated_unix": None,
        "campaign": {"total_points": len(keys), "done": done,
                     "ok": done - failed, "failed": failed, "resumed": 0,
                     "running": [], "throughput_pps": 0.0,
                     "eta_seconds": None, "elapsed_seconds": None,
                     "failure_budget": {"max": None, "burned": failed},
                     "saturation": {"cut": False, "cut_rate": None,
                                    "sustained_rate": 0.0}},
        "workers": {},
        "points": points,
        "counters": {},
        "stream_totals": {},
    }


def _bar(done: int, total: int, width: int = 32) -> str:
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(round(width * min(1.0, done / total)))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _fmt_eta(seconds) -> str:
    if seconds is None:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_status(status: Dict[str, object],
                  directory: Optional[Union[str, Path]] = None) -> str:
    """Render one status payload as a plain-ANSI dashboard frame."""
    campaign = status.get("campaign", {})
    total = campaign.get("total_points", 0) or 0
    done = campaign.get("done", 0) or 0
    lines: List[str] = []
    header = f"campaign {directory}" if directory else "campaign"
    lines.append(f"{header}  —  {status.get('status', '?')}")
    lines.append("")

    lines.append(f"progress {_bar(done, total)} {done}/{total} points  "
                 f"ok={campaign.get('ok', 0)} "
                 f"failed={campaign.get('failed', 0)} "
                 f"resumed={campaign.get('resumed', 0)}")
    budget = campaign.get("failure_budget") or {}
    budget_max = budget.get("max")
    lines.append(f"throughput {campaign.get('throughput_pps', 0.0):.2f} "
                 f"points/s   eta {_fmt_eta(campaign.get('eta_seconds'))}   "
                 f"failure budget "
                 f"{budget.get('burned', 0)}/"
                 f"{budget_max if budget_max is not None else '∞'}")
    saturation = campaign.get("saturation") or {}
    if saturation.get("cut"):
        saturation_text = f"cut at rate {saturation.get('cut_rate')}"
    else:
        saturation_text = (f"not cut (sustained "
                           f"{saturation.get('sustained_rate', 0.0)})")
    lines.append(f"saturation cursor: {saturation_text}")

    # Per-point strip in spec order: one glyph per point.
    points = status.get("points") or {}
    ordered = sorted(points.values(), key=lambda p: p.get("index", 0))
    if ordered:
        strip = "".join(_POINT_GLYPHS.get(p.get("status"), "?")
                        for p in ordered)
        lines.append(f"points [{strip}]  "
                     "(. pending  r running  # ok  R resumed  x failed)")

    # Running points with live progress.
    running = [p for p in ordered if p.get("status") == "running"]
    for point in running:
        cycles_total = point.get("cycles_total")
        cycles_done = point.get("cycles_done", 0) or 0
        if cycles_total:
            pct = 100.0 * cycles_done / cycles_total
            cycles_text = f"{cycles_done}/{cycles_total} cycles ({pct:.0f}%)"
        else:
            cycles_text = "dispatched"
        lines.append(f"  rate={point.get('rate')} worker={point.get('worker')}"
                     f"  {cycles_text}  delivered={point.get('delivered', 0)}"
                     f"  spins={point.get('spins', 0)}")

    # Worker health table.
    workers = status.get("workers") or {}
    lines.append("")
    if workers:
        lines.append(f"{'worker':>8} {'state':<8} {'hb age':>7} "
                     f"{'done':>5}  point")
        for pid, worker in sorted(workers.items(),
                                  key=lambda kv: int(kv[0])):
            age = worker.get("heartbeat_age_s")
            age_text = f"{age:.1f}s" if age is not None else "-"
            point_key = worker.get("point") or "-"
            lines.append(f"{pid:>8} {worker.get('state', '?'):<8} "
                         f"{age_text:>7} {worker.get('points_done', 0):>5}"
                         f"  {str(point_key)[:24]}")
    else:
        lines.append("workers: none reporting "
                     "(serial campaign, finished, or --no-stream)")

    counters = status.get("counters") or {}
    if counters:
        interesting = {name: value for name, value in counters.items()
                       if not name.startswith("events_")}
        text = "  ".join(f"{name}={value}"
                         for name, value in sorted(interesting.items()))
        if text:
            lines.append("")
            lines.append(f"counters: {text}")
    return "\n".join(lines) + "\n"


def render_watch(directory: Union[str, Path]) -> str:
    """One ``cli watch`` frame: live status, else journal fallback."""
    directory = Path(directory)
    status = load_status(directory)
    if status is None:
        status = journal_fallback_status(directory)
    if status is None:
        return (f"campaign {directory}: no status.json or manifest.json "
                "found — is this a campaign directory?\n")
    return render_status(status, directory)


def render_campaign_report(directory: Union[str, Path]) -> str:
    """Campaign-level ``cli report``: journal table + stream aggregates."""
    from repro.harness.campaign import CampaignJournal, load_manifest

    directory = Path(directory)
    specs, meta, _ = load_manifest(directory)
    keys = [spec.content_key() for spec in specs]
    records, torn = CampaignJournal(directory).load()
    by_key: Dict[str, Dict[str, object]] = {}
    for record in records:
        by_key[record["key"]] = record

    lines: List[str] = []
    title = meta.get("title") or meta.get("design") or str(directory)
    lines.append(f"campaign report — {title}")
    lines.append(f"directory: {directory}")
    if torn:
        lines.append(f"journal: {torn} torn tail record dropped")
    lines.append("")
    lines.append(f"{'rate':>8} {'status':<8} {'attempt':>7} "
                 f"{'wall_s':>8} {'spins':>7}  key")
    lines.append("-" * 64)
    done = failed = 0
    events: Counter = Counter()
    for spec, key in zip(specs, keys):
        record = by_key.get(key)
        if record is None:
            status, attempt, wall, spins = "pending", "-", "-", "-"
        elif record.get("status") == "ok":
            done += 1
            status = "ok"
            attempt = str(record.get("attempt", 0))
            wall = f"{float(record.get('wall_time', 0.0)):.2f}"
            point_events = (record.get("point") or {}).get("events") or {}
            events.update(point_events)
            spins = str(point_events.get("spins", 0))
        else:
            failed += 1
            attempt = str(record.get("attempt", 0))
            wall, spins = "-", "-"
            status = f"failed({record.get('class', '?')})"
        lines.append(f"{spec.injection_rate:>8} {status:<8} {attempt:>7} "
                     f"{wall:>8} {spins:>7}  {key[:16]}")
    lines.append("")
    lines.append(f"points: {len(specs)} total, {done} ok, {failed} failed, "
                 f"{len(specs) - done - failed} pending")
    lines.extend(sm_fate_lines(events))

    status = load_status(directory)
    if status is not None:
        campaign = status.get("campaign", {})
        lines.append(f"last status: {status.get('status', '?')} "
                     f"(throughput {campaign.get('throughput_pps', 0)} "
                     f"points/s)")
        counters = status.get("counters") or {}
        if counters:
            lines.append("counters: " + "  ".join(
                f"{name}={value}"
                for name, value in sorted(counters.items())))

    frames = read_stream_log(directory / STREAM_LOG_NAME)
    if frames:
        summary = stream_summary(frames)
        lines.append("")
        lines.append(f"stream: {summary['frames']} frames "
                     + " ".join(f"{name}={count}" for name, count
                                in summary["by_type"].items()))
        for pid, worker in summary["workers"].items():
            lines.append(f"  worker {pid}: {worker['frames']} frames, "
                         f"{worker['points']} points")
    return "\n".join(lines) + "\n"
