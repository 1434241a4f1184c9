"""Chaos suite: kill -9 / Ctrl-C a live campaign, resume, demand bytes.

The acceptance property behind docs/CAMPAIGNS.md: a ``cli sweep`` campaign
SIGKILLed at an arbitrary point and re-run with ``--resume`` produces a
``repro.sweep-results/v1`` artifact **byte-identical** to an uninterrupted
run.  Five seeds pick five different kill points; every one must converge.

These tests drive the real CLI in subprocesses (signals and kill -9 are
process-level facts), so they carry the ``chaos`` marker and a dedicated
CI job runs them (``pytest -m chaos``).
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.campaign import CampaignJournal, load_manifest

pytestmark = pytest.mark.chaos

RATES = "0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08"
NUM_POINTS = 8
SRC = Path(__file__).resolve().parents[2] / "src"


def sweep_args(campaign: Path, output: Path, jobs: int):
    return [sys.executable, "-m", "repro.cli", "sweep",
            "--design", "spin_mesh", "--pattern", "uniform",
            "--rates", RATES, "--mesh-side", "4", "--tdd", "32",
            "--warmup", "50", "--measure", "400", "--drain", "200",
            "--abort-cycles", "300", "--jobs", str(jobs),
            "--campaign", str(campaign), "--output", str(output)]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS", None)
    return env


def run_cli(args, timeout=180):
    return subprocess.run(args, env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)


def start_and_signal(args, journal: Path, lines: int, signum,
                     deadline_seconds=120):
    """Start a sweep, wait for ``lines`` journaled points, hit it."""
    proc = subprocess.Popen(args, env=cli_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + deadline_seconds
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before the kill point: nothing to signal
            if (journal.exists()
                    and journal.read_bytes().count(b"\n") >= lines):
                proc.send_signal(signum)
                break
            time.sleep(0.002)
        else:
            pytest.fail(f"campaign never journaled {lines} points")
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One uninterrupted --jobs 4 campaign: the reference artifact."""
    root = tmp_path_factory.mktemp("golden")
    output = root / "out.json"
    completed = run_cli(sweep_args(root / "camp", output, jobs=4))
    assert completed.returncode == 0, completed.stdout
    return output.read_bytes()


class TestKillResumeByteIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_sigkill_then_resume_matches_golden(self, seed, tmp_path,
                                                golden):
        # Each seed picks a different kill point across the campaign.
        kill_after = 1 + (seed * 3) % (NUM_POINTS - 1)
        campaign, output = tmp_path / "camp", tmp_path / "out.json"
        rc = start_and_signal(
            sweep_args(campaign, output, jobs=4),
            campaign / "journal.jsonl", kill_after, signal.SIGKILL)
        # kill -9 if we caught it in flight; 0 if it won the race.
        assert rc in (-signal.SIGKILL, 0)
        # The fsync'd journal must load cleanly (at worst a torn tail).
        records, torn = CampaignJournal(campaign).load()
        assert torn in (0, 1)
        assert all(r["status"] == "ok" for r in records)
        resumed = run_cli([sys.executable, "-m", "repro.cli", "sweep",
                           "--resume", str(campaign)])
        assert resumed.returncode == 0, resumed.stdout
        assert output.read_bytes() == golden

    def test_sigkill_then_resume_jobs1_matches_golden(self, tmp_path,
                                                      golden):
        campaign, output = tmp_path / "camp", tmp_path / "out.json"
        rc = start_and_signal(
            sweep_args(campaign, output, jobs=1),
            campaign / "journal.jsonl", 3, signal.SIGKILL)
        assert rc in (-signal.SIGKILL, 0)
        resumed = run_cli([sys.executable, "-m", "repro.cli", "sweep",
                           "--resume", str(campaign), "--jobs", "1"])
        assert resumed.returncode == 0, resumed.stdout
        assert output.read_bytes() == golden


class TestSigintDrain:
    def test_sigint_exits_130_with_resumable_journal(self, tmp_path,
                                                     golden):
        campaign, output = tmp_path / "camp", tmp_path / "out.json"
        rc = start_and_signal(
            sweep_args(campaign, output, jobs=2),
            campaign / "journal.jsonl", 2, signal.SIGINT)
        # Drained gracefully (128 + SIGINT), unless it won the race.
        assert rc in (128 + signal.SIGINT, 0)
        records, torn = CampaignJournal(campaign).load()
        assert torn == 0  # a drain closes the journal cleanly
        assert all(r["status"] == "ok" for r in records)
        resumed = run_cli([sys.executable, "-m", "repro.cli", "sweep",
                           "--resume", str(campaign)])
        assert resumed.returncode == 0, resumed.stdout
        assert output.read_bytes() == golden


class TestChaosWorkerFailures:
    def test_crashing_workers_still_converge_to_golden(self, tmp_path,
                                                       golden):
        """Every point's first attempt dies; retries rebuild the artifact."""
        campaign, output = tmp_path / "camp", tmp_path / "out.json"
        env = cli_env()
        env["REPRO_CHAOS"] = "crash:p=0.6,seed=13"
        completed = subprocess.run(
            sweep_args(campaign, output, jobs=4), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=180)
        assert completed.returncode == 0, completed.stdout
        assert "workers_respawned" in completed.stdout
        assert output.read_bytes() == golden


class TestResumeNeverRunsPastTheCut:
    #: Saturates at 0.35: three of the six rates are kept.
    CUT_RATES = "0.05,0.2,0.35,0.5,0.65,0.8"

    def args(self, campaign, output):
        args = sweep_args(campaign, output, jobs=1)
        args[args.index(RATES)] = self.CUT_RATES
        return args

    def test_sigkill_mid_curve_then_resume_journals_only_the_prefix(
            self, tmp_path):
        gold_campaign, gold = tmp_path / "gold", tmp_path / "gold.json"
        assert run_cli(self.args(gold_campaign, gold)).returncode == 0
        kept = len(json.loads(gold.read_text())["points"])
        assert kept == 3
        campaign, output = tmp_path / "camp", tmp_path / "out.json"
        rc = start_and_signal(self.args(campaign, output),
                              campaign / "journal.jsonl", 1, signal.SIGKILL)
        assert rc in (-signal.SIGKILL, 0)
        resumed = run_cli([sys.executable, "-m", "repro.cli", "sweep",
                           "--resume", str(campaign), "--jobs", "1"])
        assert resumed.returncode == 0, resumed.stdout
        assert output.read_bytes() == gold.read_bytes()
        specs, _, _ = load_manifest(campaign)
        # Keys by text: a SIGKILL may have torn one record mid-line.
        journaled = set(re.findall(r'"key":"([0-9a-f]{16})"',
                                   (campaign / "journal.jsonl").read_text()))
        assert journaled == {spec.content_key() for spec in specs[:kept]}
