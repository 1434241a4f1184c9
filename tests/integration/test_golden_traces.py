"""Golden-trace regression: replay pinned scenarios against fixtures.

The fixtures in tests/fixtures/golden/ were written by
``python -m repro.verify.golden``.  A failure here means cycle-level
behaviour drifted; the assertion message is a first-divergence diff
(:func:`repro.verify.trace.divergence_report`).  If the drift is
*intentional*, regenerate the fixtures and say so in the commit message
(docs/VERIFY.md).
"""

import os

import pytest

from repro.verify.golden import SCENARIOS, regenerate
from repro.verify.trace import (
    divergence_report,
    load_fixture,
    record_digest,
    trace_digest,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "fixtures", "golden")


def _fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, f"{name}.json")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fixture_exists_and_is_wellformed(name):
    payload = load_fixture(_fixture_path(name))
    assert payload["scenario"] == name
    assert payload["cycles"] == len(payload["records"])
    assert payload["cycles"] == SCENARIOS[name].cycles
    # Digests inside the file are internally consistent.
    assert trace_digest(payload["records"]) == payload["digest"]
    assert [record_digest(record) for record in payload["records"]] \
        == payload["cycle_digests"]
    # Pinned parameters in the fixture match the registered scenario.
    assert payload["spec"] == SCENARIOS[name].params


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_replay_matches_fixture(name, engine):
    """The load-bearing regression: re-simulate and compare every record.

    Parametrized over every engine: the fixtures are engine-independent,
    so the fast core must reproduce each pinned trace byte for byte —
    including the per-cycle observer records its idle-skipping must not
    perturb.
    """
    payload = load_fixture(_fixture_path(name))
    recorder, oracle = SCENARIOS[name].record(with_oracle=True,
                                              engine=engine)
    assert oracle is not None and oracle.violation_count == 0
    if recorder.records != payload["records"]:
        pytest.fail(
            f"golden trace {name!r} diverged under engine {engine!r} "
            f"(regenerate with `python -m repro.verify.golden` only if "
            f"the behaviour change is intentional):\n"
            + divergence_report(payload["records"], recorder.records))
    assert recorder.digest() == payload["digest"]


def test_scenarios_exercise_their_machinery():
    """The pinned runs are not vacuous: the SPIN scenario sends probes
    and the bubble scenario delivers wraparound traffic."""
    spin_payload = load_fixture(_fixture_path("mesh4_xy_spin"))
    probe_events = sum(
        delta for record in spin_payload["records"]
        for name, delta in record[8:] if name == "probes_sent")
    assert probe_events >= 10

    bubble_payload = load_fixture(_fixture_path("torus4_bubble"))
    delivered = sum(record[3] for record in bubble_payload["records"])
    assert delivered > 100


def _event_total(payload, event):
    return sum(delta for record in payload["records"]
               for name, delta in record[8:] if name == event)


@pytest.mark.parametrize("name, event", [
    ("dfly_ugal_spin_3vc", "probes_sent"),
    ("dfly_ugal_dally_3vc", None),
    ("dfly_minimal_spin_1vc", "spins"),
    ("mesh4_westfirst_2vc", None),
    ("mesh4_escapevc_2vc", None),
    ("mesh4_staticbubble_2vc", "static_bubble_recoveries"),
    ("mesh4_favors_nmin_spin_1vc", "spins"),
])
def test_design_scenarios_are_loaded(name, event):
    """The designs that always run the object datapath are pinned under
    enough load that packets queue behind blocked ones (so adaptive
    ``select`` has something to decide) and the design's own recovery
    machinery fires."""
    payload = load_fixture(_fixture_path(name))
    assert max(record[6] for record in payload["records"]) >= 10  # backlog
    assert sum(record[3] for record in payload["records"]) > 200  # delivered
    if event is not None:
        assert _event_total(payload, event) >= 1


def test_regenerate_is_reproducible(tmp_path):
    """Regeneration into a scratch dir writes byte-identical fixtures."""
    digests = regenerate(tmp_path)
    for name, digest in digests.items():
        committed = load_fixture(_fixture_path(name))
        fresh = load_fixture(tmp_path / f"{name}.json")
        assert digest == committed["digest"]
        assert fresh == committed
