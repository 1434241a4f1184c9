"""Telemetry exporters: JSONL event log and Chrome ``trace_event`` JSON.

Two on-disk formats carry a recorded run out of the process
(docs/TELEMETRY.md documents both schemas):

* ``repro.telemetry/v1`` — a JSONL event log.  Line 1 is a ``header``
  record (format tag, the producing spec, run cycle count); then, in
  deterministic order: ``sample`` records (the observer's metric samples),
  ``span`` records (closed :class:`~repro.telemetry.spans.SpinSpan`
  dicts), ``hop``/``deliver`` records (only under ``packet_traces``), and
  one final ``summary`` record (credit-stall total + histogram
  summaries).  This is the format ``repro-sim report`` consumes.
* ``repro.chrome-trace/v1`` — Chrome ``trace_event`` JSON (object form:
  ``{"traceEvents": [...], "metadata": {...}}``), loadable in Perfetto or
  ``chrome://tracing``.  One trace *clock tick equals one simulation
  cycle* (events use the ``ts``/``dur`` microsecond fields as cycle
  counts).  SPIN episodes and FROZEN residencies become complete
  (``ph="X"``) slices on one track per router; spins inside an episode
  become instant (``ph="i"``) events; metric samples become counter
  (``ph="C"``) tracks.

:func:`validate_chrome_trace` is a dependency-free structural validator
for the Chrome format (the container ships no ``jsonschema``); CI invokes
it via ``python -m repro.telemetry.export <trace.json>``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError

#: Format tag of the JSONL event log (header record ``format`` field).
JSONL_FORMAT = "repro.telemetry/v1"

#: Format tag of the Chrome trace (``metadata.format`` field).
CHROME_FORMAT = "repro.chrome-trace/v1"

#: Record types a ``repro.telemetry/v1`` log may contain.
RECORD_TYPES = ("header", "sample", "span", "hop", "deliver", "summary")

#: Chrome event phases this exporter emits (and the validator accepts).
CHROME_PHASES = ("X", "i", "C", "M")


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def build_records(observer, meta: Optional[Dict[str, object]] = None
                  ) -> List[Dict[str, object]]:
    """Serialize one finalized observer into JSONL-ready records.

    Record order is deterministic: header, samples (cycle order), spans
    (close order), hops (record order), summary.
    """
    header: Dict[str, object] = {
        "type": "header",
        "format": JSONL_FORMAT,
        "sample_interval": observer.config.sample_interval,
        "packet_traces": observer.config.packet_traces,
    }
    if meta:
        header.update(meta)
    records: List[Dict[str, object]] = [header]
    records.extend(observer.samples)
    for span in observer.spans:
        record = {"type": "span"}
        record.update(span.to_dict())
        records.append(record)
    for cycle, kind, uid, router, port in observer.hops:
        records.append({"type": kind, "cycle": cycle, "uid": uid,
                        "router": router, "port": port})
    records.append(summary_record(observer))
    return records


def summary_record(observer) -> Dict[str, object]:
    """The closing ``summary`` record: roll-up of the run.  Each histogram
    is network-wide, under the component key ``"None"``."""
    stalls = observer.credit_stalls
    return {
        "type": "summary",
        "counters": {"credit_stalls": stalls} if stalls else {},
        "histograms": {
            family: {"None": histogram.to_dict()}
            for family, histogram in sorted(observer.histograms.items())
        },
        "samples": len(observer.samples),
        "spans": len(observer.spans),
        "hops": len(observer.hops),
    }


def write_jsonl(path: str, records: Iterable[Dict[str, object]]) -> int:
    """Write records as one-JSON-object-per-line; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Read a ``repro.telemetry/v1`` log back; validates the header."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    "telemetry log line is not valid JSON",
                    path=path, line=lineno, error=str(exc)) from None
            if not isinstance(record, dict) or "type" not in record:
                raise ConfigurationError(
                    "telemetry log records must be objects with a 'type'",
                    path=path, line=lineno)
            records.append(record)
    if not records or records[0].get("type") != "header":
        raise ConfigurationError(
            "telemetry log must start with a header record", path=path)
    header_format = records[0].get("format")
    if header_format != JSONL_FORMAT:
        raise ConfigurationError(
            "unsupported telemetry log format",
            path=path, format=header_format, expected=JSONL_FORMAT)
    return records


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def chrome_trace(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Convert JSONL records into a Chrome ``trace_event`` document.

    Tracks (pid 0): tid 0 carries network-wide counters; tid ``router+1``
    carries that router's SPIN slices.  ``ts`` and ``dur`` are cycles.
    """
    header = records[0] if records and records[0].get("type") == "header" \
        else {}
    events: List[Dict[str, object]] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": "repro network"}},
        {"ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
         "args": {"name": "network counters"}},
    ]
    named_tracks = set()
    for record in records:
        kind = record.get("type")
        if kind == "sample":
            events.append({
                "ph": "C", "name": "packets", "pid": 0, "tid": 0,
                "ts": record["cycle"],
                "args": {"in_flight": record["in_flight"],
                         "backlog": record["backlog"],
                         "frozen": record["frozen"]},
            })
            events.append({
                "ph": "C", "name": "window_deltas", "pid": 0, "tid": 0,
                "ts": record["cycle"],
                "args": {"injected": record["injected"],
                         "delivered": record["delivered"],
                         "lost": record["lost"]},
            })
        elif kind == "span":
            tid = int(record["router"]) + 1
            if tid not in named_tracks:
                named_tracks.add(tid)
                events.append({
                    "ph": "M", "name": "thread_name", "pid": 0,
                    "tid": tid,
                    "args": {"name": f"router {record['router']}"},
                })
            start = int(record.get("start_cycle") or 0)
            end = record.get("end_cycle")
            duration = max(0, int(end) - start) if end is not None else 0
            args = {key: record[key] for key in sorted(record)
                    if key not in ("type",)}
            events.append({
                "ph": "X", "name": str(record.get("kind", "span")),
                "cat": "spin", "pid": 0, "tid": tid,
                "ts": start, "dur": duration, "args": args,
            })
            for cycle in record.get("spin_cycles") or ():
                events.append({
                    "ph": "i", "name": "spin", "cat": "spin",
                    "pid": 0, "tid": tid, "ts": int(cycle), "s": "t",
                })
        elif kind in ("hop", "deliver"):
            events.append({
                "ph": "i", "name": kind, "cat": "packet",
                "pid": 0, "tid": int(record["router"]) + 1,
                "ts": int(record["cycle"]), "s": "t",
                "args": {"uid": record["uid"], "port": record["port"]},
            })
    metadata = {"format": CHROME_FORMAT, "clock": "cycles"}
    for key in ("design", "seed", "injection_rate", "cycles"):
        if key in header:
            metadata[key] = header[key]
    return {"traceEvents": events, "metadata": metadata,
            "displayTimeUnit": "ns"}


def validate_chrome_trace(trace: object) -> List[str]:
    """Structurally validate a ``repro.chrome-trace/v1`` document.

    Returns a list of problems (empty = valid).  Dependency-free stand-in
    for a JSON-Schema check: asserts the object form, the metadata format
    tag, and per-event field presence/types for every phase this exporter
    emits (docs/TELEMETRY.md#chrome-trace-schema).
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["trace must be a JSON object (object-form trace_event)"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        problems.append("traceEvents must be a list")
        events = []
    metadata = trace.get("metadata")
    if not isinstance(metadata, dict):
        problems.append("metadata must be an object")
    elif metadata.get("format") != CHROME_FORMAT:
        problems.append(
            f"metadata.format must be {CHROME_FORMAT!r}, "
            f"got {metadata.get('format')!r}")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: event must be an object")
            continue
        phase = event.get("ph")
        if phase not in CHROME_PHASES:
            problems.append(f"{where}: ph must be one of "
                            f"{list(CHROME_PHASES)}, got {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: name must be a non-empty string")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: {field} must be an integer")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: ts must be a number >= 0")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"{where}: dur must be a number >= 0")
        if phase == "i" and event.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: s must be one of 't', 'p', 'g'")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.telemetry.export <trace.json> [...]`` validator.

    Exits 0 when every file validates, 1 otherwise (problems on stderr).
    """
    import sys

    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.telemetry.export <trace.json> [...]",
              file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                trace = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            status = 1
            continue
        problems = validate_chrome_trace(trace)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            count = len(trace.get("traceEvents", []))
            print(f"{path}: valid {CHROME_FORMAT} ({count} events)")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
