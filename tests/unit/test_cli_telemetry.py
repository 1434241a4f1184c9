"""Unit tests for the ``trace`` and ``report`` CLI subcommands."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.telemetry import validate_chrome_trace


def _trace_scenario(tmp_path, capsys):
    prefix = str(tmp_path / "dl")
    code = main(["trace", "--scenario", "mesh4_square_deadlock",
                 "--output", prefix])
    out = capsys.readouterr().out
    assert code == 0
    return prefix, out


class TestTraceCommand:
    def test_scenario_trace_writes_both_files(self, tmp_path, capsys):
        prefix, out = _trace_scenario(tmp_path, capsys)
        assert "SPIN episode(s)" in out
        jsonl = (tmp_path / "dl.jsonl").read_text().splitlines()
        header = json.loads(jsonl[0])
        assert header["type"] == "header"
        assert header["scenario"] == "mesh4_square_deadlock"
        assert header["topology"] == "mesh"
        trace = json.loads((tmp_path / "dl.chrome.json").read_text())
        assert validate_chrome_trace(trace) == []

    def test_design_trace(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code = main(["trace", "--design", "mesh:minadaptive-spin-1vc",
                     "--rate", "0.05", "--mesh-side", "4",
                     "--warmup", "50", "--measure", "200", "--drain", "100",
                     "--packet-traces", "--output", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "hop record(s)" in out
        header = json.loads(
            (tmp_path / "run.jsonl").read_text().splitlines()[0])
        assert header["design"] == "mesh:minadaptive-spin-1vc"
        assert header["packet_traces"] is True

    def test_trace_requires_design_or_scenario(self):
        with pytest.raises(ConfigurationError):
            main(["trace"])

    def test_trace_rejects_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            main(["trace", "--scenario", "nonesuch"])

    def test_trace_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            main(["trace", "--scenario", "mesh4_square_deadlock",
                  "--interval", "0"])


class TestReportCommand:
    def test_report_prints_recovered_span(self, tmp_path, capsys):
        prefix, _ = _trace_scenario(tmp_path, capsys)
        assert main(["report", f"{prefix}.jsonl"]) == 0
        out = capsys.readouterr().out
        # The acceptance criterion: >= 1 SPIN span, nonzero detection
        # latency, and the wedge/link/heatmap sections render.
        assert "SPIN episodes:" in out
        assert "recovered" in out
        assert "detection latency: mean=12.0" in out
        assert "hot links" in out
        assert "wedge timeline" in out
        assert "occupancy heatmap" in out
        # What became of the probes and moves, from the samples' events.
        assert "SM fate:" in out
        assert "probes  sent=" in out and "returned=" in out

    def test_report_top_links_bound(self, tmp_path, capsys):
        prefix, _ = _trace_scenario(tmp_path, capsys)
        assert main(["report", f"{prefix}.jsonl", "--top-links", "2"]) == 0
        out = capsys.readouterr().out
        assert "hot links (top 2 by flits):" in out
        with pytest.raises(ConfigurationError):
            main(["report", f"{prefix}.jsonl", "--top-links", "0"])

    def test_report_rejects_a_missing_path(self, tmp_path):
        missing = tmp_path / "nowhere.jsonl"
        with pytest.raises(ConfigurationError, match="nowhere.jsonl"):
            main(["report", str(missing)])

    def test_report_rejects_non_telemetry_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"type":"header","format":"wrong/v1"}\n')
        with pytest.raises(ConfigurationError):
            main(["report", str(path)])

    def test_sm_fate_lines(self):
        from repro.telemetry.report import sm_fate_lines

        assert sm_fate_lines({}) == []
        assert sm_fate_lines({"spins": 3, "flit_hops": 10}) == []
        lines = sm_fate_lines({
            "probes_sent": 40, "probes_returned": 2, "probes_stale": 1,
            "probes_dropped_idle_vc": 30, "probes_dropped_contention": 5,
            "moves_sent": 2, "moves_returned": 1,
            "moves_dropped_no_dependency": 1, "kill_moves_sent": 1,
            "freeze_timeouts": 0, "watchdog_fires": 1})
        assert lines == [
            "SM fate:",
            "  probes  sent=40 returned=2 stale=1  "
            "dropped: contention=5 idle_vc=30",
            "  moves   sent=2 returned=1 stale=0  dropped: no_dependency=1",
            "  kill_moves sent=1  freeze_timeouts=0  watchdog_fires=1",
        ]

    def test_run_prints_sm_fate_on_a_storm(self, capsys):
        assert main(["run", "--design", "mesh:minadaptive-spin-1vc",
                     "--rate", "0.4", "--mesh-side", "4", "--tdd", "8",
                     "--warmup", "50", "--measure", "200",
                     "--drain", "50"]) == 0
        out = capsys.readouterr().out
        assert "SM fate:" in out and "probes  sent=" in out
        assert main(["run", "--design", "mesh:westfirst-2vc",
                     "--rate", "0.05", "--mesh-side", "4",
                     "--warmup", "50", "--measure", "100",
                     "--drain", "50"]) == 0
        assert "SM fate:" not in capsys.readouterr().out

    def test_run_with_telemetry_flag(self, capsys):
        code = main(["run", "--design", "mesh:minadaptive-spin-1vc",
                     "--rate", "0.05", "--mesh-side", "4",
                     "--warmup", "50", "--measure", "200",
                     "--drain", "100", "--telemetry"])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry samples" in out
