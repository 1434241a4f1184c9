"""In-memory spans recorded by the traced pass, around calls into the repo.

A span is ``{"name", "start", "end", "parent", "key"}``: ``parent`` is the
index of the span that caused it (``None`` for a root) and ``key`` the
content key of the point it belongs to, so the spans of one point share an
identifier.  Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Optional

#: Every span name the benchmark records.
SPAN_NAMES = ("campaign.run", "point", "spec.build", "simulate_point",
              "results.save", "results.load")


class Tracer:
    """Collects spans; the untraced pass runs with no tracer at all."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, key: Optional[str] = None) -> int:
        """Record one finished span; returns its index (a parent handle)."""
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "key": key})
        return len(self.spans) - 1


def self_times(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Self seconds per span name: duration minus the children's cover.

    Children of one span never overlap each other here (each is a
    sequential call), so the covered time is the sum of their durations.
    """
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span["name"]] += (span["end"] - span["start"]
                                 - covered.get(index, 0.0))
    return dict(totals)


def write_spans(path: str, spans: List[Dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": "repro.perfbench-spans/v1", "spans": spans},
                  handle)
        handle.write("\n")
