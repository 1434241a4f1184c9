"""Shared infrastructure for the figure/table reproduction benchmarks.

Every benchmark runs its experiment exactly once (``benchmark.pedantic``
with one round), prints the regenerated table, and persists it under
``benchmarks/results/`` so the output survives pytest's capture.

Scaling: the paper simulates 100K cycles on gem5; pure Python is orders of
magnitude slower, so benchmarks default to reduced cycle counts, a reduced
dragonfly, and coarser rate grids (DESIGN.md substitution note 4).  Set
``REPRO_FULL=1`` for paper-scale parameters or ``REPRO_QUICK=1`` to slash
runtimes further (CI smoke mode).  Both are on/off gates read by
:func:`repro.config.env_gate`: an off word (``0``, ``off``, ``false``,
``no``) keeps the normal scale and a typo is an error.
"""

from __future__ import annotations

from pathlib import Path

from repro.config import SimulationConfig, env_gate

RESULTS_DIR = Path(__file__).parent / "results"

QUICK = bool(env_gate("REPRO_QUICK"))
FULL = bool(env_gate("REPRO_FULL"))


def scale(quick, normal, full):
    """Pick a parameter by run scale."""
    if FULL:
        return full
    if QUICK:
        return quick
    return normal


#: Mesh side used by mesh experiments (paper: 8).
MESH_SIDE = scale(4, 8, 8)
#: Dragonfly (p, a, h) (paper: (4, 8, 4) -> 1056 terminals).
DRAGONFLY = scale((2, 4, 2), (2, 4, 2), (4, 8, 4))
#: Detection threshold for scaled runs (paper default 128 assumes 100K-cycle
#: runs; scaled runs use a proportionally smaller threshold).
TDD = scale(32, 32, 128)


def sim_config(measure=None, warmup=None, drain=None,
               abort_cycles=1500) -> SimulationConfig:
    """Standard scaled simulation windows."""
    return SimulationConfig(
        warmup_cycles=warmup or scale(200, 400, 2000),
        measure_cycles=measure or scale(1000, 2000, 20000),
        drain_cycles=drain or scale(1000, 2000, 10000),
        deadlock_abort_cycles=abort_cycles,
    )


def write_result(name: str, text: str) -> None:
    """Print a regenerated table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
