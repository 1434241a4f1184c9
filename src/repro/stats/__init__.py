"""Statistics collection, experiment sweeps, and persisted results."""

from repro.stats.collectors import NetworkStats, LatencySummary
from repro.stats.results import (
    RESULTS_SCHEMA,
    load_results,
    results_from_json,
    results_to_json,
    save_results,
)
from repro.stats.sweep import (
    SaturationCursor,
    SweepPoint,
    simulate_point,
)

__all__ = [
    "NetworkStats",
    "LatencySummary",
    "SaturationCursor",
    "SweepPoint",
    "simulate_point",
    "RESULTS_SCHEMA",
    "save_results",
    "load_results",
    "results_to_json",
    "results_from_json",
]
