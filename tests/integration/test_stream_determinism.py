"""Acceptance tests for the live observability plane (docs/OBSERVE.md).

The load-bearing property: streaming is observation only.  A streamed
``--jobs 2`` campaign produces byte-identical sweep results and identical
journal point payloads to a ``--no-stream --jobs 1`` run.  On top of
that: ``status.json`` updates while a campaign runs, survives SIGKILL,
and reports hung workers when chaos wedges one (the ``chaos``-marked
test reuses the ``REPRO_CHAOS`` hang injection).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.telemetry.live import STATUS_NAME, STREAM_LOG_NAME

SRC = Path(__file__).resolve().parents[2] / "src"
RATES = "0.02,0.04,0.06"


def sweep_args(campaign, output, jobs, extra=()):
    return [sys.executable, "-m", "repro.cli", "sweep",
            "--design", "spin_mesh", "--pattern", "uniform",
            "--rates", RATES, "--mesh-side", "4", "--tdd", "32",
            "--warmup", "50", "--measure", "300", "--drain", "200",
            "--abort-cycles", "300", "--jobs", str(jobs),
            "--campaign", str(campaign), "--output", str(output),
            *extra]


def cli_env(**overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS", None)
    env.update(overrides)
    return env


def run_cli(args, timeout=180, **overrides):
    return subprocess.run(args, env=cli_env(**overrides),
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)


def journal_points(directory):
    """Journal records stripped of wall-clock noise, sorted by key."""
    records = []
    for line in (Path(directory) / "journal.jsonl").read_text().splitlines():
        record = json.loads(line)
        record.pop("wall_time", None)
        records.append(record)
    return sorted(records, key=lambda r: r["key"])


class TestByteIdentity:
    def test_streamed_jobs2_equals_unstreamed_jobs1(self, tmp_path):
        streamed = run_cli(sweep_args(tmp_path / "camp_stream",
                                      tmp_path / "streamed.json", 2))
        assert streamed.returncode == 0, streamed.stdout
        quiet = run_cli(sweep_args(tmp_path / "camp_quiet",
                                   tmp_path / "quiet.json", 1,
                                   ["--no-stream"]))
        assert quiet.returncode == 0, quiet.stdout

        assert (tmp_path / "streamed.json").read_bytes() \
            == (tmp_path / "quiet.json").read_bytes()
        assert journal_points(tmp_path / "camp_stream") \
            == journal_points(tmp_path / "camp_quiet")
        # The streamed campaign has its operational artifacts; the quiet
        # one has none — and neither leaks into the result files above.
        assert (tmp_path / "camp_stream" / STATUS_NAME).exists()
        assert (tmp_path / "camp_stream" / STREAM_LOG_NAME).exists()
        assert not (tmp_path / "camp_quiet" / STATUS_NAME).exists()

    def test_streamed_jobs1_also_identical(self, tmp_path):
        streamed = run_cli(sweep_args(tmp_path / "camp_a",
                                      tmp_path / "a.json", 1))
        assert streamed.returncode == 0, streamed.stdout
        quiet = run_cli(sweep_args(tmp_path / "camp_b",
                                   tmp_path / "b.json", 1,
                                   ["--no-stream"]))
        assert quiet.returncode == 0, quiet.stdout
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()
        assert journal_points(tmp_path / "camp_a") \
            == journal_points(tmp_path / "camp_b")


class TestStatusLifecycle:
    def test_status_updates_while_running_and_survives_kill(self, tmp_path):
        """SIGKILL mid-campaign leaves a readable status; resume finishes."""
        import signal

        campaign = tmp_path / "camp"
        output = tmp_path / "out.json"
        # Long drain makes points slow enough to observe mid-flight.
        args = [sys.executable, "-m", "repro.cli", "sweep",
                "--design", "spin_mesh", "--pattern", "uniform",
                "--rates", "0.02,0.04,0.06,0.08", "--mesh-side", "4",
                "--tdd", "32", "--warmup", "200", "--measure", "2000",
                "--drain", "1500", "--abort-cycles", "2000",
                "--jobs", "2", "--campaign", str(campaign),
                "--output", str(output)]
        proc = subprocess.Popen(args, env=cli_env(),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        status_path = campaign / STATUS_NAME
        seen_running = None
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                if status_path.exists():
                    try:
                        payload = json.loads(status_path.read_text())
                    except ValueError:
                        continue  # mid-replace; atomic rename races reads
                    if payload.get("workers"):
                        seen_running = payload
                        break
                time.sleep(0.02)
            assert seen_running is not None, \
                "status.json never showed workers while the sweep ran"
            assert seen_running["status"] == "running"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # The kill left the last status readable (atomic writes only).
        after_kill = json.loads(status_path.read_text())
        assert after_kill["schema"] == "repro.campaign-status/v1"

        resume = run_cli([sys.executable, "-m", "repro.cli", "sweep",
                          "--resume", str(campaign),
                          "--output", str(output)])
        assert resume.returncode == 0, resume.stdout
        final = json.loads(status_path.read_text())
        assert final["status"] == "completed"
        total = final["campaign"]["total_points"]
        assert final["campaign"]["done"] == total == 4
        # Journal-replayed points show up as resumed in the final status.
        statuses = {p["status"] for p in final["points"].values()}
        assert statuses <= {"ok", "resumed"}

    def test_status_refreshes_during_a_long_serial_point(self, tmp_path):
        """At ``--jobs 1`` frames go in-process, with no timer thread:
        the progress frames of a point still in flight must keep
        rewriting ``status.json``."""
        import signal

        campaign = tmp_path / "camp"
        # The settings above, with a measure window long enough for one
        # point to span many 0.5 s status intervals.
        args = [sys.executable, "-m", "repro.cli", "sweep",
                "--design", "spin_mesh", "--pattern", "uniform",
                "--rates", "0.02,0.04,0.06,0.08", "--mesh-side", "4",
                "--tdd", "32", "--warmup", "200", "--measure", "400000",
                "--drain", "1500", "--abort-cycles", "2000",
                "--jobs", "1", "--campaign", str(campaign),
                "--output", str(tmp_path / "out.json")]
        proc = subprocess.Popen(args, env=cli_env(),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        status_path = campaign / STATUS_NAME
        mid_point = None
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline and proc.poll() is None:
                try:
                    payload = json.loads(status_path.read_text())
                except (OSError, ValueError):
                    payload = {}  # not written yet, or mid-replace
                running = [p for p in payload.get("points", {}).values()
                           if p["status"] == "running"
                           and p["cycles_done"] > 0]
                if running:
                    mid_point = (payload, running[0])
                    break
                time.sleep(0.05)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        assert mid_point is not None, \
            "status.json never showed a point in progress at --jobs 1"
        payload, point = mid_point
        assert payload["status"] == "running"
        assert payload["campaign"]["done"] < 4
        assert 0 < point["cycles_done"] < point["cycles_total"]
        assert point["worker"] == proc.pid  # in-process: the sweep itself


@pytest.mark.chaos
class TestHungWorkerVisibility:
    def test_chaos_hang_surfaces_in_status(self, tmp_path):
        """A chaos-wedged worker shows as hung/dead, then the campaign
        still converges through supervision's kill-and-retry."""
        campaign = tmp_path / "camp"
        args = [sys.executable, "-m", "repro.cli", "sweep",
                "--design", "spin_mesh", "--pattern", "uniform",
                "--rates", "0.02,0.04", "--mesh-side", "4", "--tdd", "32",
                "--warmup", "50", "--measure", "300", "--drain", "200",
                "--abort-cycles", "300", "--jobs", "2",
                "--hang-timeout", "1.5", "--retries", "2",
                "--campaign", str(campaign),
                "--output", str(tmp_path / "out.json")]
        # Every first attempt hangs well past the 1.5s hang budget.
        proc = run_cli(args, timeout=300,
                       REPRO_CHAOS="hang:p=1.0,hang=30,seed=5")
        assert proc.returncode == 0, proc.stdout

        status = json.loads((campaign / STATUS_NAME).read_text())
        assert status["status"] == "completed"
        assert status["campaign"]["ok"] == 2
        counters = status["counters"]
        # Supervision killed the wedged workers and the aggregator saw it:
        # each hang surfaces as a hung (or, if the kill won the race, dead)
        # worker plus a respawn and a retry.
        assert counters.get("workers_hung", 0) \
            + counters.get("workers_dead", 0) >= 1
        assert counters.get("workers_respawned", 0) >= 1
        assert counters.get("retries", 0) >= 1
