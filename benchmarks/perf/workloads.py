"""The six benchmark workloads: what each simulates and why.

A workload is a list of :class:`BenchPoint` — keyword arguments for one
:class:`repro.harness.runner.ExperimentSpec` plus the check flags of that
point.  Every point seed derives from the benchmark ``--seed``, so one seed
fixes every input.  Load is closed-loop from the single benchmark process:
the next point starts when the previous one has finished.

Sizing: the builder contract caps a whole run at ~25 s, so one pass must fit
in ~3 s for a run to hold several of them.  The workloads keep the issue's
designs, patterns, rates and fabric sizes and cut the simulated windows
(README.md, "Sizing rule"): repeats first, then windows, never workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.config import SimulationConfig
from repro.sim.rng import DeterministicRng

#: Detection threshold used by every workload unless it states its own.
TDD = 32


@dataclass(frozen=True)
class BenchPoint:
    """One simulated point of a workload.

    Attributes:
        kwargs: ``ExperimentSpec`` keyword arguments (built inside the timed
            region, because spec construction is part of ``setup_s``).
        sub_saturation: The point runs below saturation, so the checks
            demand ``delivery_ratio >= 0.99`` of it.
    """

    kwargs: Dict[str, object]
    sub_saturation: bool = False


@dataclass(frozen=True)
class Workload:
    """A named workload.

    Attributes:
        name: The name BENCHMARK.json lists (its ``why`` lives there too).
        build: ``(seed, tiny) -> points``; ``tiny`` shrinks fabrics and
            windows for the self-test.
        designated: Index of the point the checks re-run on the reference
            engine.
        observer_legs: The traced run also re-runs the designated point
            under telemetry and under the oracle (one fixed point, as the
            issue asks; observers run every cycle, so this is too slow on
            the long idle windows).
        campaign: The points run through ``CampaignEngine`` with a journal
            instead of one by one.
    """

    name: str
    build: Callable[[int, bool], List[BenchPoint]]
    designated: int = 0
    observer_legs: bool = False
    campaign: bool = False


def _windows(warmup: int, measure: int, drain: int) -> SimulationConfig:
    return SimulationConfig(warmup_cycles=warmup, measure_cycles=measure,
                            drain_cycles=drain)


def _points(workload: str, seed: int, rows, **common) -> List[BenchPoint]:
    """Expand ``(design, pattern, rate, sub_saturation[, overrides])`` rows.

    Point ``i`` runs under the seed forked from ``(seed, workload/i)``, the
    same stable digest ``ExperimentSpec.forked`` uses.
    """
    rng = DeterministicRng(seed)
    points = []
    for index, row in enumerate(rows):
        design, pattern, rate, sub_saturation = row[:4]
        kwargs = dict(common, design=design, pattern=pattern,
                      injection_rate=rate,
                      seed=rng.fork(f"{workload}/{index}").seed)
        if len(row) > 4:
            kwargs.update(row[4])
        points.append(BenchPoint(kwargs, sub_saturation))
    return points


def _mesh_spin_busy(seed: int, tiny: bool) -> List[BenchPoint]:
    sim = _windows(20, 120, 60) if tiny else _windows(150, 700, 350)
    rows = [(f"mesh:minadaptive-spin-{vcs}vc", pattern, rate,
             # 1 VC under transpose is at its knee from 0.08 on.
             not (vcs == 1 and pattern == "transpose" and rate > 0.04))
            for vcs in (1, 2, 3)
            for pattern in ("uniform", "transpose")
            for rate in (0.04, 0.08, 0.12)]
    return _points("mesh_spin_busy", seed, rows[:4] if tiny else rows,
                   mesh_side=4 if tiny else 8, tdd=TDD, sim=sim,
                   engine="fast")


def _mesh_deadlock_storm(seed: int, tiny: bool) -> List[BenchPoint]:
    sim = _windows(20, 150, 50) if tiny else _windows(150, 500, 150)
    design = "mesh:minadaptive-spin-1vc"
    # Past saturation this fabric collapses to ~zero accepted load, and in
    # the transition (uniform 0.14-0.24) *when* it collapses is chaotic, so
    # the storm points sit well past it.  The four sub-saturation anchors
    # keep the simulated metrics away from 0 and steady across seeds.
    rows = [(design, "uniform", 0.10, True) for _replicate in range(4)]
    rows += [(design, pattern, rate, False)
             for pattern, rate in (("uniform", 0.30), ("uniform", 0.40),
                                   ("bit_complement", 0.20),
                                   ("bit_complement", 0.30))
             for _replicate in range(2)]
    return _points("mesh_deadlock_storm", seed, rows[2:6] if tiny else rows,
                   mesh_side=4 if tiny else 8, tdd=TDD, sim=sim,
                   engine="fast")


#: The 14 recovering/avoiding designs that compile to the reference schedule
#: under a ``fast`` request today (ROADMAP "Fast-path coverage").
FALLBACK_DESIGNS: Tuple[str, ...] = (
    "mesh:westfirst-1vc", "mesh:westfirst-2vc", "mesh:westfirst-3vc",
    "mesh:escapevc-2vc", "mesh:escapevc-3vc",
    "mesh:staticbubble-2vc", "mesh:staticbubble-3vc",
    "mesh:favors-min-spin-1vc", "mesh:favors-nmin-spin-1vc",
    "dfly:ugal-dally-3vc", "dfly:ugal-spin-3vc", "dfly:minimal-spin-1vc",
    "dfly:favors-nmin-spin-1vc", "dfly:minimal-spin-3vc",
)


def _table3_fallback_mix(seed: int, tiny: bool) -> List[BenchPoint]:
    sim = _windows(20, 100, 40) if tiny else _windows(100, 300, 100)
    designs = FALLBACK_DESIGNS[1::5] if tiny else FALLBACK_DESIGNS
    rows = [(design, "uniform", rate, True)
            for design in designs for rate in (0.05, 0.10)]
    return _points("table3_fallback_mix", seed, rows,
                   mesh_side=4 if tiny else 8, dragonfly=(2, 4, 2), tdd=TDD,
                   sim=sim, engine="fast")


def _mesh_idle_sparse(seed: int, tiny: bool) -> List[BenchPoint]:
    sim = _windows(20, 600, 100) if tiny else _windows(500, 8000, 1000)
    tail = _windows(20, 600, 5000) if tiny else _windows(500, 8000, 200000)
    rows = [(f"mesh:minadaptive-spin-{vcs}vc", "uniform", rate, True)
            for vcs in (1, 3) for rate in (0.005, 0.01, 0.02)]
    rows.append(("mesh:minadaptive-spin-1vc", "uniform", 0.02, True,
                 {"sim": tail}))
    return _points("mesh_idle_sparse", seed, rows[-3:] if tiny else rows,
                   mesh_side=4 if tiny else 8, tdd=TDD, sim=sim,
                   engine="fast")


def _dfly_paper_scale(seed: int, tiny: bool) -> List[BenchPoint]:
    sim = _windows(10, 60, 30) if tiny else _windows(25, 125, 50)
    rows = [("dfly:ugal-spin-3vc", "uniform", 0.05, True),
            ("dfly:minimal-spin-1vc", "uniform", 0.05, True),
            ("dfly:ugal-dally-3vc", "uniform", 0.05, True),
            ("dfly:ugal-spin-3vc", "tornado", 0.10, False)]
    return _points("dfly_paper_scale", seed, rows[1:3] if tiny else rows,
                   dragonfly=(2, 4, 2) if tiny else (4, 8, 4), tdd=128,
                   sim=sim, engine="fast")


def _campaign_small_points(seed: int, tiny: bool) -> List[BenchPoint]:
    # 50 simulated cycles a point, so that the engine does little: its
    # phases are a third of the wall, and what the campaign engine, journal,
    # stream, replay and artifact add to the workers' own spec.run() seconds
    # is 26-30 % (~0.6 of the ~2.8 ms a point costs); the rest is per-point
    # build and engine set-up.  With the issue's 500-cycle windows the
    # engine was 83 % of the wall and the harness 9 %.
    sim = _windows(5, 30, 15)
    rates = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08)
    replicates = 1 if tiny else 8
    rows = [(design, pattern, rate, False)
            for design in ("mesh:minadaptive-spin-1vc",
                           "mesh:minadaptive-spin-3vc",
                           "mesh:westfirst-2vc")
            for pattern in ("uniform", "transpose")
            for _replicate in range(replicates)
            for rate in (rates[:2] if tiny else rates)]
    return _points("campaign_small_points", seed, rows, mesh_side=4,
                   tdd=TDD, sim=sim, engine="fast")


WORKLOADS: Tuple[Workload, ...] = (
    Workload("mesh_spin_busy", _mesh_spin_busy, observer_legs=True),
    Workload("mesh_deadlock_storm", _mesh_deadlock_storm),
    Workload("table3_fallback_mix", _table3_fallback_mix),
    Workload("mesh_idle_sparse", _mesh_idle_sparse, designated=3),
    Workload("dfly_paper_scale", _dfly_paper_scale, designated=1),
    Workload("campaign_small_points", _campaign_small_points, campaign=True),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
