"""The one rule every ``REPRO_*`` environment gate resolves by.

``repro.config.env_gate`` reads ``REPRO_VERIFY``, ``REPRO_TELEMETRY``,
``REPRO_ENGINE`` and ``REPRO_PROFILE`` (and the benchmarks' scale gates):
unset or an off word is off, an accepted word maps to its value, anything
else is a ``ConfigurationError`` naming the variable and every accepted
value.  An explicit field or argument wins and the variable is not read.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import ENV_OFF_VALUES, SimulationConfig, env_gate
from repro.errors import ConfigurationError
from repro.sim.engine_api import ENGINE_ENV_VAR, resolve_engine_name
from repro.sim.profile import PROFILE_ENV, PhaseProfiler
from repro.stats.sweep import simulate_point
from repro.telemetry.observer import (
    TELEMETRY_ENV,
    TELEMETRY_MODES,
    TelemetryObserver,
)
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern
from repro.verify.oracle import VERIFY_ENV, VERIFY_MODES, InvariantOracle

from tests.conftest import make_mesh_network

SRC = Path(__file__).resolve().parents[2] / "src"

#: How each gate is read where it is consumed.
RESOLVE = {
    VERIFY_ENV: lambda: env_gate(VERIFY_ENV, VERIFY_MODES),
    TELEMETRY_ENV: lambda: env_gate(TELEMETRY_ENV, TELEMETRY_MODES,
                                    integer=True),
    ENGINE_ENV_VAR: resolve_engine_name,
    PROFILE_ENV: lambda: env_gate(PROFILE_ENV),
}

#: gate -> (accepted value -> resolved value, what "off" resolves to,
#: one typo).
TABLE = {
    VERIFY_ENV: ({"1": "record", "record": "record", "strict": "raise",
                  "raise": "raise", " Strict ": "raise"}, None, "stirct"),
    TELEMETRY_ENV: ({"1": "metrics", "on": "metrics", "true": "metrics",
                     "metrics": "metrics", "spans": "metrics",
                     "full": "full", "32": 32, " ON ": "metrics"},
                    None, "onn"),
    ENGINE_ENV_VAR: ({"reference": "reference", "fast": "fast",
                      " Fast ": "fast"}, "reference", "warp"),
    PROFILE_ENV: ({"1": True, "on": True, "true": True, "yes": True,
                   " Yes ": True}, None, "onn"),
}

UNSET = object()


def _cases():
    for variable, (accepted, off, typo) in TABLE.items():
        rows = [(UNSET, off)]
        rows += [(word, off) for word in sorted(ENV_OFF_VALUES) + [" NO "]]
        rows += list(accepted.items())
        rows.append((typo, ConfigurationError))
        for value, expected in rows:
            label = "unset" if value is UNSET else repr(value)
            yield pytest.param(variable, value, expected,
                               id=f"{variable}={label}")


@pytest.mark.parametrize("variable,value,expected", list(_cases()))
def test_gate_table(monkeypatch, variable, value, expected):
    for other in RESOLVE:
        monkeypatch.delenv(other, raising=False)
    if value is not UNSET:
        monkeypatch.setenv(variable, value)
    if expected is ConfigurationError:
        with pytest.raises(ConfigurationError) as caught:
            RESOLVE[variable]()
        message = str(caught.value)
        assert variable in message
        for word in TABLE[variable][0]:
            if word.isalpha() and word == word.lower():
                assert word in message
        assert "off" in message
    else:
        assert RESOLVE[variable]() == expected


def test_explicit_arguments_win_over_bad_variables(monkeypatch):
    """Set instruments never read their variable, even a misspelled one."""
    for variable, (_, _, typo) in TABLE.items():
        monkeypatch.setenv(variable, typo)
    network = make_mesh_network()
    traffic = SyntheticTraffic(network, make_pattern("uniform", 16), 0.05,
                               seed=1, stop_at=60)
    point = simulate_point(
        network, traffic, SimulationConfig(warmup_cycles=20,
                                           measure_cycles=40,
                                           drain_cycles=20),
        oracle=InvariantOracle(network),
        telemetry_observer=TelemetryObserver(network),
        engine="reference", profiler=PhaseProfiler())
    assert point.cycles == 80


@pytest.mark.parametrize("value", ["-3", "1.5"])
def test_only_whole_numbers_set_the_sample_interval(monkeypatch, value):
    monkeypatch.setenv(TELEMETRY_ENV, value)
    with pytest.raises(ConfigurationError, match="an integer >= 1"):
        RESOLVE[TELEMETRY_ENV]()


def test_benchmark_scale_off_word_keeps_the_normal_scale(monkeypatch):
    import benchmarks._common as common

    monkeypatch.setenv("REPRO_FULL", "no")
    monkeypatch.setenv("REPRO_QUICK", "off")
    try:
        importlib.reload(common)
        assert not common.FULL and not common.QUICK
        assert common.DRAGONFLY == (2, 4, 2)
        assert common.sim_config().measure_cycles == 2000
    finally:
        monkeypatch.undo()
        importlib.reload(common)


def test_cli_exits_2_on_a_misspelled_gate():
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_PROFILE="onn")
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "--design", "spin_mesh",
         "--rate", "0.05", "--mesh-side", "4", "--warmup", "20",
         "--measure", "40", "--drain", "20"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "REPRO_PROFILE='onn' is not recognized" in done.stderr
