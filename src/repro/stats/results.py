"""Persisted sweep results: a small, versioned JSON schema.

Every sweep — serial or parallel — can be saved to disk and reloaded
without loss, so the benchmark trajectory (EXPERIMENTS.md) is built from
files rather than console scrollback.  The schema is deliberately
deterministic: keys are sorted and no timestamps are embedded, so two runs
of the same experiment produce *byte-identical* files regardless of worker
count (the acceptance check behind ``--jobs``).

Schema (``repro.sweep-results/v1``)::

    {
      "schema": "repro.sweep-results/v1",
      "meta": { ... caller-provided, JSON-safe, deterministic ... },
      "points": [ SweepPoint.to_dict(), ... ]
    }
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.stats.sweep import SweepPoint

#: Version tag written into (and demanded from) every results file.
RESULTS_SCHEMA = "repro.sweep-results/v1"

#: The harness's one JSON form: sorted keys, no whitespace, ASCII escapes.
#: CPython serves it from its C encoder — any ``indent`` would fall back
#: to the pure-Python one, several times slower.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(document: object) -> str:
    """``document`` as one line of canonical JSON (no trailing newline).

    The single form of every JSON artifact the harness writes (campaign
    manifest, journal, ``status.json``, ``stream.jsonl``, results files)
    and of the bytes a spec's content key hashes, so it must never change:
    a different form would orphan every journal on disk.  Equal documents
    give equal text.  Readers parse any JSON layout (``json.loads``), and
    ``python -m json.tool`` pretty-prints the text for people.
    """
    return _CANONICAL.encode(document)


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Durably replace ``path`` with ``text`` — all of it or none of it.

    The text is written to a sibling temp file, fsync'd, then moved over
    the target with :func:`os.replace` (atomic on POSIX), so a crash at
    any instant leaves either the previous file or the complete new one —
    never a torn half-write.  The containing directory is fsync'd
    best-effort so the rename itself survives power loss.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(str(path.parent) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent (e.g. NFS)
        pass
    return path


def results_to_json(points: List[SweepPoint],
                    meta: Optional[Dict[str, object]] = None) -> str:
    """Serialize points (plus optional metadata) to the canonical JSON text.

    The text is fully deterministic for identical inputs: one line of
    :func:`canonical_json` plus a trailing newline.
    """
    document = {
        "schema": RESULTS_SCHEMA,
        "meta": meta or {},
        "points": [point.to_dict() for point in points],
    }
    return canonical_json(document) + "\n"


def save_results(path: Union[str, Path], points: List[SweepPoint],
                 meta: Optional[Dict[str, object]] = None) -> Path:
    """Write a results file atomically; returns the resolved path.

    Uses :func:`atomic_write_text`, so a crash mid-save can never leave a
    half-written artifact — readers see the old file or the new file.
    """
    return atomic_write_text(path, results_to_json(points, meta))


def results_from_json(text: str) -> Tuple[List[SweepPoint], Dict[str, object]]:
    """Parse canonical JSON text back into ``(points, meta)``."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"results file is not valid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise ConfigurationError("results file must hold a JSON object",
                                 got=type(document).__name__)
    schema = document.get("schema")
    if schema != RESULTS_SCHEMA:
        raise ConfigurationError(
            "unsupported results schema", got=schema,
            expected=RESULTS_SCHEMA)
    raw_points = document.get("points")
    if not isinstance(raw_points, list):
        raise ConfigurationError("results file carries no points list")
    points = []
    for index, raw in enumerate(raw_points):
        if not isinstance(raw, dict):
            raise ConfigurationError("results point must be an object",
                                     index=index, got=type(raw).__name__)
        points.append(SweepPoint.from_dict(raw))
    meta = document.get("meta") or {}
    if not isinstance(meta, dict):
        raise ConfigurationError("results meta must be an object",
                                 got=type(meta).__name__)
    return points, meta


def load_results(path: Union[str, Path]
                 ) -> Tuple[List[SweepPoint], Dict[str, object]]:
    """Read a results file back into ``(points, meta)``."""
    return results_from_json(Path(path).read_text())
