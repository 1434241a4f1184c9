"""Property-based tests for the results serialization layer.

Two invariants (docs/API.md, ``repro.sweep-results/v1``):

* every representable :class:`SweepPoint` survives ``to_dict`` /
  ``from_dict`` — and the full JSON text round trip — unchanged, so a
  results file is a faithful archive of a sweep;
* serialization is canonical: dumping the same points twice yields the
  same bytes, and parsing-then-dumping is a fixed point.

Floats are drawn finite (no NaN/inf): JSON numbers round-trip finite
IEEE-754 doubles exactly, and the simulator never emits non-finite
measurements.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stats.results import (
    RESULTS_SCHEMA,
    results_from_json,
    results_to_json,
)
from repro.stats.sweep import SweepPoint

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_RATE = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)
_COUNT = st.integers(min_value=0, max_value=2**40)
_EVENT_KEYS = st.sampled_from(
    ["spins", "probes_sent", "sm_dropped", "watchdog_fires", "reroutes",
     "faults_injected", "recoveries_after_fault"])

POINTS = st.builds(
    SweepPoint,
    injection_rate=_RATE,
    mean_latency=_FINITE,
    p99_latency=_FINITE,
    throughput=_FINITE,
    delivery_ratio=_RATE,
    wedged=st.booleans(),
    delivered=_COUNT,
    events=st.dictionaries(_EVENT_KEYS, _COUNT, max_size=4),
    link_utilization=st.tuples(_RATE, _RATE, _RATE),
    packets_lost=_COUNT,
    cycles=_COUNT,
)

META = st.dictionaries(
    st.sampled_from(["design", "pattern", "seed", "note"]),
    st.one_of(st.text(max_size=12), st.integers(-10, 10), st.none()),
    max_size=3)


@given(POINTS)
@settings(max_examples=80)
def test_point_dict_round_trip(point):
    assert SweepPoint.from_dict(point.to_dict()) == point


@given(POINTS)
@settings(max_examples=80)
def test_point_dict_is_json_safe(point):
    through_json = json.loads(json.dumps(point.to_dict()))
    assert SweepPoint.from_dict(through_json) == point


# A list of up to five points is slow to generate on a loaded host; the
# health check then fails the run, not the property.
@given(st.lists(POINTS, max_size=5), META)
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_results_text_round_trip(points, meta):
    text = results_to_json(points, meta)
    points_back, meta_back = results_from_json(text)
    assert points_back == points
    assert meta_back == meta


@given(st.lists(POINTS, max_size=4), META)
@settings(max_examples=40)
def test_serialization_is_canonical(points, meta):
    text = results_to_json(points, meta)
    # Same inputs -> same bytes; parse-then-dump is a fixed point.
    assert results_to_json(points, meta) == text
    back_points, back_meta = results_from_json(text)
    assert results_to_json(back_points, back_meta) == text
    assert json.loads(text)["schema"] == RESULTS_SCHEMA
