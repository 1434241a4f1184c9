"""Self-test of the benchmark: ``pytest benchmarks/perf`` (not tier-1).

One ``--tiny`` run of every workload, traced, in well under 30 s, then
shape checks against BENCHMARK.json and ``compare.py`` on the record.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import compare
from benchmarks.perf.spans import SPAN_NAMES, self_times

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

WORKLOADS = ["mesh_spin_busy", "mesh_deadlock_storm", "table3_fallback_mix",
             "mesh_idle_sparse", "dfly_paper_scale", "campaign_small_points"]
END_TO_END = ["setup_s", "wall_s", "sim_cycles_per_s", "peak_rss_mb",
              "sim_latency_cycles", "sim_accepted_rate"]


#: Ratios that are n/a when their denominator is 0: no probe or spin
#: happened on a (tiny) storm.
ABSENT_WHEN_NOTHING_HAPPENED = {"core.probe_useful_ratio",
                                "core.spin_abort_ratio"}


@pytest.fixture(scope="module")
def definitions():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def gate():
    return json.loads((ROOT / "benchmarks" / "perf" / "gate.json")
                      .read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def record_path(tmp_path_factory):
    directory = tmp_path_factory.mktemp("perfbench")
    out = directory / "out.json"
    subprocess.run(RUN + ["--tiny", "--seconds", "0.3", "--trace", "1",
                          "--output", str(out),
                          "--trace-output", str(directory / "spans.json")],
                   check=True, cwd=ROOT, timeout=120)
    return out


@pytest.fixture(scope="module")
def record(record_path):
    return json.loads(record_path.read_text(encoding="utf-8"))


def test_benchmark_json_shape(definitions):
    assert set(definitions) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert definitions["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in definitions["workloads"]] == WORKLOADS
    assert [m["name"] for m in definitions["end_to_end"]] == END_TO_END
    assert 2 <= len(definitions["workloads"]) <= 8
    assert 1 <= len(definitions["end_to_end"]) <= 16
    assert 1 <= len(definitions["per_layer"]) <= 128
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in definitions[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in definitions["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in definitions["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in definitions["per_layer"]:
        # The builder contract fixes these keys; gate.json holds the rest.
        assert set(metric) == {"name", "unit", "better"}
    for metric in definitions["end_to_end"] + definitions["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = definitions["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == (
        "setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"]
                                 for m in definitions["end_to_end"])


def test_gate_json_covers_the_issue(definitions, gate):
    """What BENCHMARK.json cannot hold: the seven same-seed bounds and the
    end-to-end metric and workloads each layer metric should move."""
    assert list(gate["bounds"]) == END_TO_END + ["fail_share"]
    assert set(gate["host_timed"]) < set(END_TO_END)
    for metric in definitions["end_to_end"]:
        assert 0 <= gate["bounds"][metric["name"]] <= metric["bound"]
    assert gate["bounds"]["fail_share"] == 0
    assert list(gate["moves"]) == [m["name"]
                                   for m in definitions["per_layer"]]
    for moves in gate["moves"].values():
        assert set(moves["workloads"]) <= set(WORKLOADS)
        if moves["metric"] is None:
            assert not moves["workloads"] and moves["note"]
        else:
            assert moves["metric"] in END_TO_END and moves["workloads"]


def test_every_workload_reports_every_metric(record, definitions, gate):
    assert list(record["workloads"]) == WORKLOADS
    layer_names = [m["name"] for m in definitions["per_layer"]]
    for name, detail in record["workloads"].items():
        assert list(detail["end_to_end"]) == END_TO_END, name
        assert list(detail["per_layer"]) == layer_names, name
        for row in detail["end_to_end"].values():
            assert row["value"] > 0 and row["n"] >= 1
        # A layer metric is a median with its spread, or null for n/a;
        # those mapped to this workload are all measured.
        for layer, row in detail["per_layer"].items():
            if row is not None:
                assert row["n"] >= 1
                assert (row["q1"] <= row["value"] <= row["q3"]
                        or row["value"] == pytest.approx(row["q1"])
                        or row["value"] == pytest.approx(row["q3"])), (
                    name, layer)
            if (row is None and name in gate["moves"][layer]["workloads"]
                    and layer != "harness.pool_dispatch_ms_per_point"):
                assert layer in ABSENT_WHEN_NOTHING_HAPPENED, (name, layer)
        assert detail["failed"] == 0, detail["failures"]
        assert detail["sim_fingerprint"] == detail["traced_fingerprint"]
        assert set(detail["host"]) >= {"nproc", "affinity", "python",
                                       "commit", "loadavg_start",
                                       "loadavg_end", "speed_probe_s"}


def test_layers_say_which_engine_path_ran(record):
    layers = {name: {layer: row and row["value"]
                     for layer, row in detail["per_layer"].items()}
              for name, detail in record["workloads"].items()}
    fallback = layers["table3_fallback_mix"]
    assert fallback["sim.soa_points"] == 0
    assert fallback["sim.fallback_points"] > 0
    assert fallback["routing.fallback_design_us_per_router_cycle"] > 0
    assert layers["mesh_spin_busy"]["sim.fallback_points"] == 0
    assert layers["mesh_spin_busy"]["routing.rng_draws_per_cycle"] > 0
    assert layers["mesh_idle_sparse"]["sim.skip_ratio"] > 0.5
    campaign = layers["campaign_small_points"]
    assert campaign["harness.replay_ms_per_point"] > 0
    assert 0 < campaign["harness.share_of_wall"] < 1
    assert 0 < campaign["sim.engine_share_of_wall"] < 1
    # n/a is null, never a best-possible 0.
    assert layers["mesh_spin_busy"]["harness.share_of_wall"] is None
    assert campaign["telemetry.observer_slowdown_x"] is None
    assert layers["mesh_spin_busy"]["telemetry.observer_slowdown_x"] > 0


def test_spans(record_path):
    spans = json.loads(record_path.with_name(
        "spans.campaign_small_points.json").read_text("utf-8"))["spans"]
    assert {span["name"] for span in spans} == set(SPAN_NAMES)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            assert span["key"] == parent["key"]
    assert all(seconds >= 0 for seconds in self_times(spans).values())


def test_compare_against_itself_is_all_ok(record, record_path, capsys):
    rows = compare.compare(record, record)
    assert len(rows) == len(WORKLOADS) * (len(END_TO_END) + 2)
    # Tiny passes are milliseconds long, so their spread may exceed a
    # bound; nothing may ever read "worse" against itself.
    assert {row["verdict"] for row in rows} <= {"ok", "unresolved"}
    assert compare.main([str(record_path), str(record_path)]) == 0
    assert "sim_fingerprint" in capsys.readouterr().out


def _verdicts(a, b):
    return {(row["workload"], row["metric"]): row
            for row in compare.compare(a, b)}


def test_compare_flags_regressions(record, record_path, tmp_path, capsys):
    worse = json.loads(json.dumps(record))
    detail = worse["workloads"]["mesh_spin_busy"]
    detail["end_to_end"]["sim_accepted_rate"]["value"] *= 0.9
    detail["sim_fingerprint"] = "0" * 64
    detail["fail_share"] = 0.5
    rows = _verdicts(record, worse)
    for metric in ("sim_accepted_rate", "sim_fingerprint", "fail_share"):
        assert rows[("mesh_spin_busy", metric)]["verdict"] == "worse"
    assert rows[("mesh_idle_sparse", "sim_fingerprint")]["verdict"] == "ok"
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse), encoding="utf-8")
    assert compare.main([str(record_path), str(path)]) == 1
    assert "simulated statistic moved" in capsys.readouterr().out


def test_compare_host_metric_verdicts(record):
    """A steady host metric past its bound is ``worse`` and names the
    layers to look at; a zero baseline and a B-only workload are
    ``unresolved``, not a crash or a silent skip."""
    steady = json.loads(json.dumps(record))
    for detail in steady["workloads"].values():
        for row in detail["end_to_end"].values():
            row["q1"] = row["q3"] = row["value"]
    slower = json.loads(json.dumps(steady))
    campaign = slower["workloads"]["campaign_small_points"]
    campaign["end_to_end"]["wall_s"]["value"] *= 1.11
    campaign["end_to_end"]["wall_s"]["q1"] = campaign["end_to_end"][
        "wall_s"]["q3"] = campaign["end_to_end"]["wall_s"]["value"]
    slower["workloads"]["extra"] = campaign
    row = _verdicts(steady, slower)[("campaign_small_points", "wall_s")]
    assert row["verdict"] == "worse"
    assert any(hint.startswith("harness.share_of_wall ")
               for hint in row["hints"])
    assert _verdicts(steady, slower)[("extra", "(workload)")][
        "verdict"] == "unresolved"
    # The same slowdown with the host's speed probe 20 % slower during B
    # cannot be pinned on the program; memory is still judged.
    campaign["host"]["speed_probe_s"] *= 1.2
    rows = _verdicts(steady, slower)
    assert rows[("campaign_small_points", "wall_s")]["verdict"] == "unresolved"
    assert rows[("campaign_small_points", "peak_rss_mb")]["verdict"] == "ok"
    campaign["host"]["speed_probe_s"] /= 1.2
    assert _verdicts(slower, steady)[("extra", "(workload)")][
        "verdict"] == "worse"

    dead = json.loads(json.dumps(steady))
    for side in (steady, dead):
        side["workloads"]["mesh_spin_busy"]["end_to_end"][
            "sim_latency_cycles"]["value"] = 0.0
    dead["workloads"]["mesh_spin_busy"]["end_to_end"]["wall_s"]["value"] = 0.0
    rows = _verdicts(dead, steady)
    assert rows[("mesh_spin_busy", "sim_latency_cycles")]["verdict"] == "ok"
    assert rows[("mesh_spin_busy", "wall_s")]["verdict"] == "unresolved"


def test_driver_result_line(definitions):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "mesh_deadlock_storm", "--tiny", "--seed",
                   "7", "--seconds", "0.2", "--trace", str(trace)],
            check=True, cwd=ROOT, capture_output=True, text=True, timeout=60)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"]
                                           for m in definitions[group]]
        for metric in definitions[group]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
