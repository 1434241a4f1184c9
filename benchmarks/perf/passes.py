"""One pass over a workload: build, simulate and serialise every point.

The untraced pass takes only the timestamps the end-to-end metrics need.
The traced pass (a :class:`~benchmarks.perf.spans.Tracer` is given) also
records spans, attaches a ``PhaseProfiler`` to every point, counts routing
RNG draws and times the side legs the per-layer metrics come from.  Side
legs run after the ``point`` span has closed, so the traced and untraced
``wall_s`` cover the same calls and their difference is the tracing
overhead.

All timing is taken here, around calls into public functions of ``repro``;
no file of the program is changed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional

from repro.deadlock.waitgraph import find_deadlocked_packets
from repro.harness.campaign import (
    CampaignConfig,
    CampaignEngine,
    write_manifest,
)
from repro.harness.configs import get_design
from repro.harness.runner import ExperimentSpec
from repro.sim.profile import PhaseProfiler
from repro.stats.results import (
    load_results,
    results_to_json,
    save_results,
)
from repro.stats.sweep import SweepPoint, simulate_point
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.mesh import MeshTopology

from benchmarks.perf.spans import Tracer
from benchmarks.perf.workloads import BenchPoint

perf = time.perf_counter


class CountingRandom(random.Random):
    """``random.Random`` that counts its draws without changing them.

    Both primitives are overridden and delegate to ``super()``: overriding
    ``getrandbits`` keeps ``Random`` on its ``_randbelow_with_getrandbits``
    path, so ``choice``/``randint`` consume the identical bit sequence.
    """

    draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)


def count_routing_draws(network) -> CountingRandom:
    """Swap a counting generator, in the same state, into ``routing.rng``."""
    rng = network.routing.rng
    counting = CountingRandom()
    counting.setstate(rng._random.getstate())
    rng._random = counting
    return counting


@dataclass
class PassResult:
    """What one pass measured.

    ``errors`` aligns with ``points`` (``None`` for a point that ran);
    ``problems`` lists what went wrong with the pass as a whole.  ``rows``
    holds one dict of raw layer measurements per point and is filled by
    the traced pass only; ``extra`` holds pass-level layer timings
    (campaign run, replay, results round-trip) and ``records`` the
    campaign's ``SpecResult`` list.  Set-up and simulate seconds are kept
    per point so a run can take each point's median over its passes.
    """

    points: List[Optional[SweepPoint]]
    errors: List[Optional[str]]
    problems: List[str] = field(default_factory=list)
    point_setup_s: List[float] = field(default_factory=list)
    point_sim_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    rows: List[Dict[str, object]] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    records: list = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return sum(self.point_setup_s)

    @property
    def sim_s(self) -> float:
        return sum(self.point_sim_s)

    @property
    def cycles(self) -> int:
        return sum(point.cycles for point in self.points if point)

    @cached_property
    def fingerprint(self) -> str:
        """sha256 of the canonical JSON of every point's ``to_dict()``."""
        payload = json.dumps(
            [None if point is None else point.to_dict()
             for point in self.points],
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def simulate_spec(spec: ExperimentSpec, network, traffic, injector,
                  profiler=None, engine: Optional[str] = None) -> SweepPoint:
    """``ExperimentSpec.run`` after the build, so the two time apart."""
    return simulate_point(network, traffic, spec.sim,
                          injection_rate=spec.injection_rate,
                          injector=injector, verify=spec.verify,
                          telemetry=spec.telemetry,
                          engine=engine or spec.engine or None,
                          profiler=profiler)


def _round_trip(points: List[SweepPoint], directory: Path, meta,
                tracer: Optional[Tracer], result: PassResult) -> float:
    """``save_results`` then ``load_results``; returns the seconds taken."""
    path = directory / "results.json"
    start = perf()
    save_results(path, points, meta)
    saved = perf()
    loaded, _ = load_results(path)
    end = perf()
    if [p.to_dict() for p in loaded] != [p.to_dict() for p in points]:
        result.problems.append("results round-trip changed the points")
    if tracer is not None:
        tracer.add("results.save", start, saved)
        tracer.add("results.load", saved, end)
    result.extra["results_save_s"] = saved - start
    result.extra["results_load_s"] = end - saved
    return end - start


def _topology_seconds(spec: ExperimentSpec) -> float:
    """Time the bare topology constructor of a spec's design."""
    start = perf()
    if get_design(spec.design).topology == "mesh":
        MeshTopology(spec.mesh_side, spec.mesh_side)
    else:
        DragonflyTopology(*spec.dragonfly)
    return perf() - start


def run_sim_pass(bench_points: List[BenchPoint], workdir: Path,
                 tracer: Optional[Tracer] = None) -> PassResult:
    """Build, simulate and serialise each point in turn."""
    result = PassResult(points=[], errors=[])
    for bench_point in bench_points:
        point = error = None
        # Collect the previous point's network (cyclic garbage) now, so it
        # is billed to the pass wall but not to this point's set-up.
        collecting = perf()
        gc.collect()
        start = built = perf()
        try:
            spec = ExperimentSpec(**bench_point.kwargs)
            network, traffic, injector = spec.build()
            built = perf()
            profiler = counting = None
            if tracer is not None:
                profiler = PhaseProfiler()
                counting = count_routing_draws(network)
            point = simulate_spec(spec, network, traffic, injector, profiler)
        except Exception:
            error = traceback.format_exc()
        end = perf()
        result.points.append(point)
        result.errors.append(error)
        result.point_setup_s.append(built - start)
        result.point_sim_s.append(end - built)
        result.wall_s += end - collecting
        if tracer is None or point is None:
            continue
        key = spec.content_key()
        parent = tracer.add("point", start, end, key=key)
        tracer.add("spec.build", start, built, parent, key)
        tracer.add("simulate_point", built, end, parent, key)
        row: Dict[str, object] = dict(
            design=spec.design, key=key, build_s=built - start,
            sim_s=end - built, cycles=point.cycles,
            routers=len(network.routers),
            controllers=(len(network.spin.controllers)
                         if network.spin is not None else 0),
            phase_s=dict(profiler.phase_seconds),
            counters=dict(profiler.counters), events=dict(point.events),
            injected=network.stats.packets_injected,
            link_utilization=point.link_utilization[0],
            rng_draws=counting.draws)
        side = perf()
        find_deadlocked_packets(network, point.cycles)
        row["waitgraph_s"] = perf() - side
        row["topology_s"] = _topology_seconds(spec)
        result.rows.append(row)
    good = [point for point in result.points if point is not None]
    result.wall_s += _round_trip(good, workdir, {"benchmark": "sim"},
                                 tracer, result)
    return result


def run_campaign_pass(bench_points: List[BenchPoint], workdir: Path,
                      tracer: Optional[Tracer] = None, stream: bool = True,
                      jobs: int = 1) -> PassResult:
    """Run the points as a journaled campaign, replay it, save and load.

    The second engine on the same directory is a pure journal replay: it
    reads what the first one wrote.  ``sim_s`` is the workers' own
    ``spec.run()`` wall (build + simulate), which is all the campaign
    engine exposes per point.
    """
    directory = workdir / "campaign"
    shutil.rmtree(directory, ignore_errors=True)
    config = CampaignConfig(jobs=jobs, stream=stream, latency_cap=1e9)
    meta = {"benchmark": "campaign_small_points"}

    # Every pass starts from a collected heap: the networks of the pass
    # before are cyclic garbage, and whose wall they land in is chance.
    gc.collect()
    start = perf()
    specs = [ExperimentSpec(**bp.kwargs) for bp in bench_points]
    write_manifest(directory, specs, meta)
    engine = CampaignEngine(specs, directory, config)
    ready = perf()
    report = engine.run()
    ran = perf()
    replayed = CampaignEngine(specs, directory, config).run()
    done = perf()

    ran_ok = [r is not None and r.ok for r in report.results]
    result = PassResult(
        points=[r.point if ok else None
                for r, ok in zip(report.results, ran_ok)],
        errors=[None if ok else (r.error if r is not None else "not run")
                for r, ok in zip(report.results, ran_ok)])
    result.point_setup_s = [ready - start]
    result.point_sim_s = [r.wall_time if ok else 0.0
                          for r, ok in zip(report.results, ran_ok)]
    good = [point for point in result.points if point is not None]
    result.wall_s = (done - start) + _round_trip(good, directory, meta,
                                                 tracer, result)
    if tracer is not None:
        tracer.add("campaign.run", ready, ran)
        tracer.add("campaign.run", ran, done)
    result.extra.update(
        campaign_run_s=ran - ready, replay_s=done - ran,
        retries=report.counters.get("retries", 0),
        failures=report.counters.get("failures_permanent", 0))

    # Check 4: the artifact of the replay is byte-identical to the first.
    resumed = [r.point for r in replayed.results if r is not None and r.ok]
    if (results_to_json(resumed, meta).encode("utf-8")
            != (directory / "results.json").read_bytes()):
        result.problems.append("resumed artifact differs from the first")
    result.records = report.results
    shutil.rmtree(directory, ignore_errors=True)
    return result
