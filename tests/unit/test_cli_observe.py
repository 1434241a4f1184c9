"""CLI surfaces of the observability plane: watch, serve-metrics,
profile, campaign-level report/trace, and the sweep --no-stream flag."""

import json

import pytest

from repro.cli import main
from repro.telemetry.live import STATUS_NAME, STREAM_LOG_NAME

SWEEP_ARGS = ["sweep", "--design", "spin_mesh", "--pattern", "uniform",
              "--rates", "0.02,0.05", "--mesh-side", "4", "--tdd", "32",
              "--warmup", "50", "--measure", "200", "--drain", "150",
              "--abort-cycles", "300"]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One completed, streamed serial campaign shared by the module."""
    directory = tmp_path_factory.mktemp("camp")
    assert main(SWEEP_ARGS + ["--campaign", str(directory)]) == 0
    return directory


class TestWatch:
    def test_once_renders_completed_campaign(self, campaign, capsys):
        assert main(["watch", str(campaign), "--once"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "2/2 points" in out
        assert "ok=2" in out

    def test_once_missing_directory(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope"), "--once"]) == 0
        assert "no status.json" in capsys.readouterr().out

    def test_bad_interval_rejected(self, campaign):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["watch", str(campaign), "--interval", "0"])

    def test_journal_fallback_for_no_stream_campaign(self, tmp_path,
                                                     capsys):
        directory = tmp_path / "quiet"
        assert main(SWEEP_ARGS + ["--campaign", str(directory),
                                  "--no-stream"]) == 0
        assert not (directory / STATUS_NAME).exists()
        assert not (directory / STREAM_LOG_NAME).exists()
        assert main(["watch", str(directory), "--once"]) == 0
        out = capsys.readouterr().out
        assert "journal view" in out
        assert "[##]" in out


class TestServeMetrics:
    def test_once_lints_clean(self, campaign, capsys):
        from repro.telemetry.prometheus import validate_exposition

        assert main(["serve-metrics", str(campaign), "--once"]) == 0
        out = capsys.readouterr().out
        assert validate_exposition(out) == []
        assert 'repro_campaign_points{state="ok"} 2' in out

    def test_once_without_status_fails(self, tmp_path, capsys):
        assert main(["serve-metrics", str(tmp_path), "--once"]) == 1
        assert "status.json" in capsys.readouterr().err


class TestProfileCommand:
    def test_both_engines_and_output(self, tmp_path, capsys):
        output = tmp_path / "profile.json"
        code = main(["profile", "--design", "mesh:minadaptive-spin-1vc",
                     "--mesh-side", "4", "--rate", "0.1",
                     "--warmup", "50", "--measure", "200",
                     "--drain", "150", "--abort-cycles", "300",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine=reference" in out
        assert "engine=fast" in out
        assert "engines agree on the profiled point" in out
        payload = json.loads(output.read_text())
        assert payload["schema"] == "repro.profile/v1"
        assert payload["identical_points"] is True
        assert set(payload["reports"]) == {"reference", "fast"}
        fast = payload["reports"]["fast"]
        assert fast["counters"]["router_cycles_skipped"] > 0

    def test_output_says_which_path_ran(self, tmp_path, capsys):
        """A design outside the SoA envelope: the fast request buys
        nothing, stderr says so once and the artifact carries the path and
        the reason — while the points stay identical."""
        output = tmp_path / "profile.json"
        code = main(["profile", "--design", "mesh:escapevc-2vc",
                     "--mesh-side", "4", "--rate", "0.1",
                     "--warmup", "50", "--measure", "150",
                     "--drain", "100", "--abort-cycles", "300",
                     "--output", str(output)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.count("ran the reference schedule") == 1
        assert "EscapeVcRouting" in captured.err
        assert "path=reference-schedule (routing:" in captured.out
        reports = json.loads(output.read_text())["reports"]
        assert reports["reference"]["engine_path"] == "reference-schedule"
        assert reports["reference"]["fallback_reason"] is None
        assert reports["fast"]["engine_path"] == "reference-schedule"
        assert reports["fast"]["fallback_reason"].startswith("routing:")

    def test_covered_design_reports_the_soa_path(self, tmp_path, capsys):
        output = tmp_path / "profile.json"
        assert main(["profile", "--design", "spin_mesh", "--mesh-side", "4",
                     "--rate", "0.05", "--warmup", "50", "--measure", "100",
                     "--drain", "100", "--abort-cycles", "200",
                     "--engines", "fast", "--output", str(output)]) == 0
        captured = capsys.readouterr()
        assert "ran the reference schedule" not in captured.err
        fast = json.loads(output.read_text())["reports"]["fast"]
        assert fast["engine_path"] == "soa"
        assert fast["fallback_reason"] is None

    def test_single_engine_via_engines_flag(self, capsys):
        code = main(["profile", "--design", "spin_mesh",
                     "--mesh-side", "4", "--rate", "0.05",
                     "--warmup", "50", "--measure", "100",
                     "--drain", "100", "--abort-cycles", "200",
                     "--engines", "reference"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine=reference" in out
        assert "engine=fast" not in out

    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["profile", "--design", "spin_mesh", "--engines",
                  "warp9"])


class TestRunProfileFlag:
    def test_run_profile_prints_phase_table(self, capsys):
        code = main(["run", "--design", "spin_mesh", "--rate", "0.05",
                     "--mesh-side", "4", "--warmup", "50",
                     "--measure", "100", "--drain", "100",
                     "--abort-cycles", "200", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase" in out and "allocate" in out
        # The run obeys the session's engine resolution (REPRO_ENGINE may
        # redirect the whole suite onto the fast core in CI).
        from repro.sim.engine_api import resolve_engine_name

        assert f"engine={resolve_engine_name()}" in out


class TestFastRequestThatBoughtNothing:
    ARGS = ["--mesh-side", "4", "--warmup", "50", "--measure", "100",
            "--drain", "100", "--abort-cycles", "200", "--engine", "fast"]

    def test_run_notes_the_fallback_on_stderr(self, capsys):
        assert main(["run", "--design", "mesh:westfirst-2vc", "--rate",
                     "0.05"] + self.ARGS) == 0
        captured = capsys.readouterr()
        assert captured.err.count("ran the reference schedule") == 1
        assert "WestFirstRouting" in captured.err
        assert "reference schedule" not in captured.out

    def test_run_with_faults_names_the_injector(self, capsys):
        assert main(["run", "--design", "spin_mesh", "--rate", "0.05",
                     "--faults", "link_down@60:r5-r6"] + self.ARGS) == 0
        assert "(faults:" in capsys.readouterr().err

    def test_run_on_a_covered_design_is_silent(self, capsys):
        assert main(["run", "--design", "spin_mesh", "--rate", "0.05"]
                    + self.ARGS) == 0
        assert "reference schedule" not in capsys.readouterr().err

    def test_sweep_notes_it_once_and_keeps_the_artifact(self, tmp_path,
                                                        capsys):
        outputs = []
        for engine in ("fast", "reference"):
            output = tmp_path / f"{engine}.json"
            args = ["sweep", "--design", "mesh:staticbubble-2vc", "--rates",
                    "0.03,0.06", "--output", str(output)] + self.ARGS[:-1]
            assert main(args + [engine]) == 0
            captured = capsys.readouterr()
            assert captured.err.count("ran the reference schedule") == (
                1 if engine == "fast" else 0)
            payload = json.loads(output.read_text())
            payload["meta"].pop("engine", None)
            outputs.append(payload)
        # Nothing about the path leaks into the results.
        assert outputs[0] == outputs[1]
        assert "engine_path" not in json.dumps(outputs[0])


class TestCampaignReport:
    def test_report_accepts_campaign_directory(self, campaign, capsys):
        assert main(["report", str(campaign)]) == 0
        out = capsys.readouterr().out
        assert "campaign report" in out
        assert "2 total, 2 ok, 0 failed" in out
        assert "stream:" in out
        assert "point_end=2" in out

    def test_report_sums_sm_fate_over_the_points(self, tmp_path, capsys):
        directory = tmp_path / "storm"
        assert main(["sweep", "--design", "spin_mesh", "--rates", "0.3,0.4",
                     "--mesh-side", "4", "--tdd", "8", "--warmup", "50",
                     "--measure", "200", "--drain", "50", "--abort-cycles",
                     "1000", "--campaign", str(directory),
                     "--no-stream"]) == 0
        capsys.readouterr()
        assert main(["report", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "SM fate:" in out and "probes  sent=" in out

    def test_report_rejects_non_campaign_directory(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["report", str(tmp_path)])


class TestCampaignTrace:
    def test_trace_converts_stream_log(self, campaign, tmp_path, capsys):
        prefix = tmp_path / "campaign_trace"
        assert main(["trace", "--campaign", str(campaign),
                     "--output", str(prefix)]) == 0
        out = capsys.readouterr().out
        assert "campaign stream:" in out
        chrome = json.loads((tmp_path / "campaign_trace.chrome.json")
                            .read_text())
        slices = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 2
        frames = [json.loads(line) for line in
                  (tmp_path / "campaign_trace.jsonl").read_text()
                  .splitlines()]
        assert any(f["type"] == "point_end" for f in frames)

    def test_trace_campaign_without_stream_log(self, tmp_path):
        from repro.errors import ConfigurationError

        directory = tmp_path / "quiet"
        assert main(SWEEP_ARGS + ["--campaign", str(directory),
                                  "--no-stream"]) == 0
        with pytest.raises(ConfigurationError):
            main(["trace", "--campaign", str(directory),
                  "--output", str(tmp_path / "t")])


class TestSerialCampaignStreams:
    def test_jobs1_campaign_writes_status_and_stream(self, campaign):
        """The in-process serial path connects to its own listener."""
        status = json.loads((campaign / STATUS_NAME).read_text())
        assert status["status"] == "completed"
        assert status["campaign"]["ok"] == 2
        # The serial worker is this very process, streaming to itself.
        assert len(status["workers"]) == 1
        lines = (campaign / STREAM_LOG_NAME).read_text().splitlines()
        types = [json.loads(line)["type"] for line in lines]
        assert types.count("point_start") == 2
        assert types.count("point_end") == 2
