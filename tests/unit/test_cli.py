"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError, FaultInjectionError
from repro.stats.results import load_results


class TestParser:
    def test_designs_command(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        assert "mesh:favors-min-spin-1vc" in out
        assert "dfly:ugal-dally-3vc" in out

    def test_run_requires_rate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--design", "x"])

    def test_area_command(self, capsys):
        assert main(["area", "--radix", "5", "--vcs", "3"]) == 0
        out = capsys.readouterr().out
        assert "router area" in out
        assert "SPIN modules" in out


class TestRunCommand:
    def test_small_run(self, capsys):
        code = main([
            "run", "--design", "mesh:favors-min-spin-1vc",
            "--pattern", "uniform", "--rate", "0.05",
            "--mesh-side", "4", "--warmup", "100", "--measure", "500",
            "--drain", "500", "--tdd", "32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean latency" in out
        assert "delivery ratio" in out

    def test_unknown_design_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            main(["run", "--design", "mesh:bogus", "--rate", "0.1"])

    def test_design_alias_accepted(self, capsys):
        code = main([
            "run", "--design", "spin_mesh", "--rate", "0.05",
            "--mesh-side", "4", "--warmup", "100", "--measure", "400",
            "--drain", "400", "--tdd", "32",
        ])
        assert code == 0
        assert "mean latency" in capsys.readouterr().out

    def test_faulty_run_prints_fault_counters(self, capsys):
        code = main([
            "run", "--design", "spin_mesh", "--rate", "0.05",
            "--mesh-side", "4", "--warmup", "100", "--measure", "500",
            "--drain", "500", "--tdd", "32",
            "--faults", "link_down@200:r1-r2,sm_drop:p=0.05",
            "--fault-seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "watchdog fires" in out
        assert "packets lost" in out


class TestRunValidation:
    BASE = ["run", "--design", "spin_mesh"]

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="offered load"):
            main(self.BASE + ["--rate", "0.0"])

    def test_rate_capped_at_one(self):
        with pytest.raises(ConfigurationError, match="offered load"):
            main(self.BASE + ["--rate", "1.5"])

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="--seed"):
            main(self.BASE + ["--rate", "0.1", "--seed", "-3"])

    def test_nonpositive_tdd_rejected(self):
        with pytest.raises(ConfigurationError, match="--tdd"):
            main(self.BASE + ["--rate", "0.1", "--tdd", "0"])

    def test_malformed_dragonfly_rejected(self):
        with pytest.raises(ConfigurationError, match="--dragonfly"):
            main(["run", "--design", "dfly:minimal-spin-1vc",
                  "--rate", "0.1", "--dragonfly", "2,4"])
        with pytest.raises(ConfigurationError, match="--dragonfly"):
            main(["run", "--design", "dfly:minimal-spin-1vc",
                  "--rate", "0.1", "--dragonfly", "2,x,4"])
        with pytest.raises(ConfigurationError, match="--dragonfly"):
            main(["run", "--design", "dfly:minimal-spin-1vc",
                  "--rate", "0.1", "--dragonfly", "2,0,4"])

    def test_bad_fault_spec_rejected_before_simulation(self):
        with pytest.raises(FaultInjectionError):
            main(self.BASE + ["--rate", "0.1", "--faults", "warp_core_breach"])

    def test_negative_fault_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="--fault-seed"):
            main(self.BASE + ["--rate", "0.1", "--fault-seed", "-1"])

    def test_negative_abort_cycles_rejected(self):
        with pytest.raises(ConfigurationError, match="deadlock_abort_cycles"):
            main(self.BASE + ["--rate", "0.1", "--mesh-side", "4",
                              "--abort-cycles", "-1"])
        with pytest.raises(ConfigurationError, match="deadlock_abort_cycles"):
            main(["sweep", "--design", "spin_mesh", "--rates", "0.05",
                  "--mesh-side", "4", "--abort-cycles", "-1"])

    def test_negative_abort_cycles_exits_2_with_one_line(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli"] + self.BASE
            + ["--rate", "0.1", "--mesh-side", "4", "--abort-cycles", "-1"],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: deadlock_abort_cycles")

    def test_sweep_rates_validated(self):
        with pytest.raises(ConfigurationError, match="offered load"):
            main(["sweep", "--design", "spin_mesh", "--rates", "0.05,1.2"])

    @pytest.mark.parametrize("rates", ["0.1,abc", "0.1,,0.2", "x"])
    def test_malformed_sweep_rates_rejected(self, rates):
        with pytest.raises(ConfigurationError, match="--rates"):
            main(["sweep", "--design", "spin_mesh", "--rates", rates])

    @pytest.mark.parametrize("seeds", ["1,x", "1.5", "1,"])
    def test_malformed_verify_seeds_rejected(self, seeds):
        with pytest.raises(ConfigurationError, match="--seeds"):
            main(["verify", "--seeds", seeds])


class TestSweepCommand:
    SMALL = ["sweep", "--design", "spin_mesh", "--pattern", "uniform",
             "--mesh-side", "4", "--warmup", "100", "--measure", "400",
             "--drain", "300", "--abort-cycles", "500"]

    def test_small_sweep(self, capsys):
        code = main([
            "sweep", "--design", "mesh:westfirst-3vc",
            "--pattern", "uniform", "--rates", "0.05,0.3",
            "--mesh-side", "4", "--warmup", "100", "--measure", "400",
            "--drain", "300",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation rate" in out

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="--jobs"):
            main(self.SMALL + ["--rates", "0.05", "--jobs", "0"])

    def test_output_writes_loadable_results(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        code = main(self.SMALL + ["--rates", "0.02,0.05",
                                  "--output", str(out_file)])
        assert code == 0
        assert "wrote 2 points" in capsys.readouterr().out
        points, meta = load_results(out_file)
        assert [p.injection_rate for p in points] == [0.02, 0.05]
        assert meta["design"] == "mesh:minadaptive-spin-1vc"  # canonical
        assert meta["pattern"] == "uniform"
        assert "jobs" not in meta  # files are --jobs independent

    def test_parallel_sweep_output_matches_serial_byte_for_byte(
            self, capsys, tmp_path):
        serial, parallel = tmp_path / "jobs1.json", tmp_path / "jobs2.json"
        assert main(self.SMALL + ["--rates", "0.02,0.05",
                                  "--output", str(serial)]) == 0
        assert main(self.SMALL + ["--rates", "0.02,0.05", "--jobs", "2",
                                  "--output", str(parallel)]) == 0
        capsys.readouterr()  # drain the tables
        assert serial.read_bytes() == parallel.read_bytes()

    def test_failed_points_exit_nonzero_with_summary(self, capsys):
        code = main(["sweep", "--design", "spin_mesh",
                     "--pattern", "nonexistent", "--rates", "0.02,0.05",
                     "--mesh-side", "4", "--warmup", "100",
                     "--measure", "400", "--drain", "300",
                     "--abort-cycles", "500"])
        assert code == 1
        out = capsys.readouterr().out
        assert "point(s) failed" in out
        assert "worker raised" in out  # the per-error-class table

    @pytest.mark.parametrize("rates", ["0.6,0.05", "0.05,0.05"])
    def test_rates_must_ascend_strictly(self, rates):
        # Unordered rates would all be simulated, then cut against the
        # first point as zero load: one row and a wrong saturation rate.
        with pytest.raises(ConfigurationError, match="ascending"):
            main(self.SMALL + ["--rates", rates])

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="--retries"):
            main(self.SMALL + ["--rates", "0.05", "--retries", "-1"])

    def test_negative_max_failures_rejected(self):
        with pytest.raises(ConfigurationError, match="--max-failures"):
            main(self.SMALL + ["--rates", "0.05", "--max-failures", "-1"])


class TestSweepCampaign:
    SMALL = TestSweepCommand.SMALL

    def test_campaign_writes_manifest_and_journal(self, capsys, tmp_path):
        campaign = tmp_path / "camp"
        code = main(self.SMALL + ["--rates", "0.02,0.05",
                                  "--campaign", str(campaign)])
        assert code == 0
        assert (campaign / "manifest.json").exists()
        journal = (campaign / "journal.jsonl").read_text()
        assert len(journal.strip().split("\n")) == 2

    def test_campaign_rerun_resumes_all_points(self, capsys, tmp_path):
        campaign = tmp_path / "camp"
        args = self.SMALL + ["--rates", "0.02,0.05",
                             "--campaign", str(campaign)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "points_resumed=2" in capsys.readouterr().out

    def test_campaign_dir_spec_mismatch_rejected(self, tmp_path):
        campaign = tmp_path / "camp"
        assert main(self.SMALL + ["--rates", "0.02",
                                  "--campaign", str(campaign)]) == 0
        with pytest.raises(ConfigurationError, match="different sweep"):
            main(self.SMALL + ["--rates", "0.02,0.05",
                               "--campaign", str(campaign)])

    def test_resume_rebuilds_identical_artifact(self, capsys, tmp_path):
        campaign, out_file = tmp_path / "camp", tmp_path / "out.json"
        assert main(self.SMALL + ["--rates", "0.02,0.05",
                                  "--campaign", str(campaign),
                                  "--output", str(out_file)]) == 0
        golden = out_file.read_bytes()
        out_file.unlink()
        # --resume takes everything (specs, meta, output) from the manifest.
        assert main(["sweep", "--resume", str(campaign)]) == 0
        assert out_file.read_bytes() == golden

    def test_resume_conflicts_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            main(["sweep", "--resume", str(tmp_path / "a"),
                  "--campaign", str(tmp_path / "b")])
        with pytest.raises(ConfigurationError, match="drop --design"):
            main(["sweep", "--resume", str(tmp_path / "a"),
                  "--design", "spin_mesh"])

    def test_sweep_without_design_or_resume_rejected(self):
        with pytest.raises(ConfigurationError, match="--resume"):
            main(["sweep"])

    def test_resume_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="manifest"):
            main(["sweep", "--resume", str(tmp_path / "nowhere")])

    def test_resume_malformed_manifest_entry_rejected(self, tmp_path):
        campaign = tmp_path / "camp"
        assert main(self.SMALL + ["--rates", "0.02,0.05",
                                  "--campaign", str(campaign)]) == 0
        manifest = campaign / "manifest.json"
        payload = json.loads(manifest.read_text())
        del payload["specs"][0]["spec"]
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="index=0"):
            main(["sweep", "--resume", str(campaign)])
