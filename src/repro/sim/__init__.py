"""Cycle-level simulation kernel: engines, clock loop, deterministic RNG."""

from repro.sim.rng import DeterministicRng
from repro.sim.engine import Simulator
from repro.sim.engine_api import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    SimulatorEngine,
    available_engines,
    create_engine,
    resolve_engine_name,
)
from repro.sim.profile import (
    PROFILE_ENV,
    PROFILE_SCHEMA,
    PhaseProfiler,
    render_report,
)

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "PROFILE_ENV",
    "PROFILE_SCHEMA",
    "DeterministicRng",
    "PhaseProfiler",
    "Simulator",
    "SimulatorEngine",
    "available_engines",
    "create_engine",
    "render_report",
    "resolve_engine_name",
]
