"""Run the repo benchmark (BENCHMARK.json at the repo root).

One workload, as the benchmark driver calls it::

    python3 benchmarks/perf/run.py --workload mesh_spin_busy --seed 1 \\
        --seconds 14 --trace 0

measures for ``--seconds`` seconds and prints, as the last line of stdout,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Every workload, for a person (``-m benchmarks.perf.run`` works too)::

    python3 benchmarks/perf/run.py --seed 1 --trace 1 --output OUT.json

runs each workload in its own fresh subprocess, one after another, prints
every metric by name with its unit, and writes one record that
``compare.py`` can set against another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = "repro.perfbench/v1"


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.perf`` importable from a checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/perf: no program to measure under {ROOT}/src")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def load_definitions() -> Dict[str, object]:
    """BENCHMARK.json: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_gate() -> Dict[str, object]:
    """gate.json: what BENCHMARK.json's fixed shape has no room for.

    The same-seed bounds ``compare.py`` applies (0 = must be equal) and, per
    layer metric, the end-to-end metric and workloads it should move.
    """
    return json.loads(
        (Path(__file__).with_name("gate.json")).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Host block
# ----------------------------------------------------------------------
def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_block() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count() or 1,
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "loadavg_start": os.getloadavg()[0],
    }


def speed_probe() -> float:
    """Seconds a fixed pure-Python kernel (~15 ms) takes right now.

    The sandbox's CPU runs at one of two speeds ~20 % apart for tens of
    seconds at a time, which the load average does not show.  A run takes
    the probe before every pass, outside the timed regions, and records the
    median, so ``compare.py`` can tell two records made at different host
    speeds from a change in the program.
    """
    start = time.perf_counter()
    table, value = {}, 0
    for index in range(150000):
        table[index & 1023] = value
        value = (value * 31 + index) & 0xFFFF
    return time.perf_counter() - start


def close_host_block(host: Dict[str, object]) -> bool:
    """Add the closing load average; returns whether the run was noisy."""
    host["loadavg_end"] = os.getloadavg()[0]
    noisy = max(host["loadavg_start"], host["loadavg_end"]) > host["nproc"]
    if noisy:
        print(f"benchmarks/perf: 1-min loadavg above nproc={host['nproc']} "
              f"({host['loadavg_start']:.2f} -> {host['loadavg_end']:.2f}); "
              "host timings are noisy", file=sys.stderr)
    return noisy


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _summary(values: List[float]) -> Optional[Dict[str, float]]:
    """Median, quartiles and sample count (no tail is claimed).

    ``None`` when nothing was measured: n/a, not a number.  The quartiles
    are those of the run's 4-13 passes taken as the whole data set
    (``inclusive``): extrapolated ones sit at the extremes for so few
    samples, and one warm-up pass would read as the run's spread.
    """
    if not values:
        return None
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _summed(columns) -> Dict[str, float]:
    """A sum over points of each point's own median and quartiles over
    the passes (``columns[i]`` holds point ``i``'s samples)."""
    rows = [_summary(list(column)) for column in columns]
    return {"value": sum(row["value"] for row in rows),
            "q1": sum(row["q1"] for row in rows),
            "q3": sum(row["q3"] for row in rows), "n": rows[0]["n"]}


def _check_points(workload, bench_points, result) -> Dict[int, str]:
    """Checks 1 and 2 and the avoidance rule; index -> why it failed."""
    from repro.harness.configs import get_design

    core_events = ("probes_sent", "spins", "sm_retries", "watchdog_fires")
    failed: Dict[int, str] = {}
    for index, (bench_point, point, error) in enumerate(
            zip(bench_points, result.points, result.errors)):
        if point is None:
            failed[index] = f"errored: {(error or '').strip()[-300:]}"
        elif point.wedged:
            failed[index] = "wedged"
        elif point.invariant_violations:
            failed[index] = "invariant violations"
        elif bench_point.sub_saturation and point.delivery_ratio < 0.99:
            failed[index] = (f"sub-saturation point delivered "
                             f"{point.delivery_ratio:.4f} < 0.99")
        elif (get_design(bench_point.kwargs["design"]).scheme == "avoidance"
              and any(point.events.get(name) for name in core_events)):
            failed[index] = "SPIN control-plane events on an avoidance design"
    return failed


def _rerun(bench_point, engine=None, timed_traffic=False, **overrides):
    """Build and simulate one point again.

    Returns ``(point, seconds, traffic-generator seconds, packets
    created)``; the generator is timed only when asked, around
    ``SyntheticTraffic.phase_inject``.
    """
    from repro.harness.runner import ExperimentSpec

    from benchmarks.perf.passes import perf, simulate_spec

    spec = ExperimentSpec(**dict(bench_point.kwargs, **overrides))
    network, traffic, injector = spec.build()
    generate = [0.0]
    if timed_traffic:
        inner = traffic.phase_inject

        def phase_inject(cycle):
            start = perf()
            inner(cycle)
            generate[0] += perf() - start

        traffic.phase_inject = phase_inject
    start = perf()
    point = simulate_spec(spec, network, traffic, injector, engine=engine)
    return point, perf() - start, generate[0], network.stats.packets_created


def _observer_round(bench_point, samples) -> None:
    """One sample each of the observer slowdowns on the designated point:
    the fast engine under telemetry and under the oracle, over it plain."""
    plain = _rerun(bench_point)[1]
    samples["telemetry.observer_slowdown_x"].append(
        _rerun(bench_point, telemetry=True)[1] / plain)
    samples["verify.oracle_slowdown_x"].append(
        _rerun(bench_point, verify=True)[1] / plain)


def _campaign_round(bench_points, workdir, streamed, samples) -> None:
    """One sample each of the harness legs that need a campaign of their
    own, set against ``streamed``, the pass that ran just before."""
    from benchmarks.perf.passes import run_campaign_pass

    count = len(bench_points)
    run_s = streamed.extra["campaign_run_s"]
    unstreamed = run_campaign_pass(bench_points, workdir, stream=False)
    samples["telemetry.stream_overhead_ms_per_point"].append(
        1e3 * (run_s - unstreamed.extra["campaign_run_s"]) / count)
    if len(os.sched_getaffinity(0)) >= 2:  # else n/a: nothing to dispatch to
        pooled = run_campaign_pass(bench_points, workdir, jobs=2)
        samples["harness.pool_dispatch_ms_per_point"].append(1e3 * (
            pooled.extra["campaign_run_s"] - pooled.sim_s / 2) / count)


def _campaign_samples(bench_points, untraced, traced, workdir, tracer,
                      samples) -> None:
    """The campaign workload's layer samples, beyond ``_campaign_round``.

    ``sim_s`` of a campaign pass is the workers' own ``spec.run()`` wall,
    so what the harness adds is read off within each pass.  The bare
    (campaign-less) traced pass is where the ``sim.*`` layers and the
    per-point spans of this workload come from.
    """
    from repro.harness.campaign import CampaignJournal, ok_record

    from benchmarks.perf.layers import sim_layers
    from benchmarks.perf.passes import perf, run_sim_pass

    count = len(bench_points)
    for result in traced:
        samples["harness.campaign_overhead_ms_per_point"].append(
            1e3 * (result.extra["campaign_run_s"] - result.sim_s) / count)
        samples["harness.replay_ms_per_point"].append(
            1e3 * result.extra["replay_s"] / count)
        samples["harness.points_retried"].append(result.extra["retries"])
        samples["harness.points_failed"].append(result.extra["failures"])
    samples["harness.share_of_wall"] = [
        1.0 - result.sim_s / result.wall_s for result in untraced]

    bare = sim_layers(
        run_sim_pass(bench_points, workdir, tracer).rows,
        statistics.median(result.wall_s for result in untraced))
    for name, value in bare.items():
        samples[name].append(value)

    records = [ok_record(r.spec.content_key(), 0, r)
               for r in traced[-1].records if r is not None and r.ok]
    journal = CampaignJournal(workdir / "journal-leg").open()
    start = perf()
    for record in records:
        journal.append(record)
    appended = perf() - start
    journal.close()
    if len(journal.load()[0]) != len(records):
        traced[-1].problems.append("journal lost records")
    samples["harness.journal_append_ms"].append(
        1e3 * appended / max(1, len(records)))


def _end_to_end(untraced, peak_rss_mb: float) -> Dict[str, Dict[str, float]]:
    """The six end-to-end metrics from a run's untraced passes."""
    good = [p for p in untraced[0].points if p]
    delivered = sum(p.delivered for p in good)
    return {
        # Each point's median over the passes, summed: a collector pause
        # that lands in one point's build is not the set-up's.
        "setup_s": _summed(zip(*(r.point_setup_s for r in untraced))),
        "wall_s": _summary([r.wall_s for r in untraced]),
        "sim_cycles_per_s": _summary([r.cycles / r.sim_s for r in untraced]),
        "peak_rss_mb": _summary([peak_rss_mb]),
        "sim_latency_cycles": _summary([
            sum(p.mean_latency * p.delivered for p in good)
            / max(1, delivered)]),
        "sim_accepted_rate": _summary([
            sum(p.throughput for p in good) / max(1, len(good))]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 check: bool, tiny: bool) -> Dict[str, object]:
    """Measure one workload in this process; returns the detail record."""
    from benchmarks.perf.layers import sim_layers
    from benchmarks.perf.passes import (
        perf,
        run_campaign_pass,
        run_sim_pass,
    )
    from benchmarks.perf.spans import Tracer, self_times
    from benchmarks.perf.workloads import BY_NAME

    definitions = load_definitions()
    workload = BY_NAME[name]
    host = host_block()
    bench_points = workload.build(seed, tiny)
    designated = min(workload.designated, len(bench_points) - 1)
    run_pass = run_campaign_pass if workload.campaign else run_sim_pass
    # Inside the checkout, as the benchmark may write nowhere else, and
    # relative, so the campaign's Unix stream socket keeps a short path
    # wherever the checkout lives.
    workdir = Path(os.path.relpath(
        ROOT / ".bench_work" / f"{name}-{os.getpid()}"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Rounds fill the time budget: an untraced pass and, with --trace 1,
        # a traced pass and one sample of each side leg.  Every per-layer
        # metric is a list of samples, one per round, so its median comes
        # with a spread.  A traced run holds back a quarter round for the
        # single legs that follow the loop.
        reserve = 0.25 if trace else 0.0
        untraced, traced, tracer = [], [], Tracer()
        samples: Dict[str, List[float]] = defaultdict(list)
        probes: List[float] = []
        started = perf()
        while True:
            probes.append(speed_probe())
            untraced.append(run_pass(bench_points, workdir))
            if trace:
                traced.append(run_pass(bench_points, workdir, tracer))
                samples["trace_overhead_pct"].append(
                    100.0 * (traced[-1].wall_s - untraced[-1].wall_s)
                    / untraced[-1].wall_s)
                if workload.campaign:
                    _campaign_round(bench_points, workdir, traced[-1],
                                    samples)
                if workload.observer_legs:
                    _observer_round(bench_points[designated], samples)
            elapsed = perf() - started
            if elapsed + (0.5 + reserve) * elapsed / len(untraced) >= seconds:
                break
        end_to_end = _end_to_end(untraced, resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)

        first = untraced[0]
        failed = _check_points(workload, bench_points, first) if check else {
            i: "errored" for i, p in enumerate(first.points) if p is None}
        if check or trace:
            # Check 3, and with it the traffic generator's time.
            reference, _, generate_s, created = _rerun(
                bench_points[designated], "reference", timed_traffic=trace)
            expected = first.points[designated]
            if expected is None or reference.to_dict() != expected.to_dict():
                failed.setdefault(designated, "reference engine disagrees")
            if trace and created:
                samples["traffic.generate_us_per_packet"].append(
                    1e6 * generate_s / created)

        traced_same = all(r.fingerprint == first.fingerprint for r in traced)
        per_layer: Dict[str, Optional[Dict[str, float]]] = {}
        if trace:
            points = sum(1 for p in first.points if p)
            for result in traced:
                samples["stats.results_roundtrip_ms_per_kpoint"].append(
                    1e6 * (result.extra["results_save_s"]
                           + result.extra["results_load_s"]) / max(1, points))
            if workload.campaign:
                _campaign_samples(bench_points, untraced, traced, workdir,
                                  tracer, samples)
            else:
                for result in traced:
                    for key, value in sim_layers(result.rows,
                                                 result.wall_s).items():
                        samples[key].append(value)
            if not traced_same:  # n/a, not a wrong number
                samples.pop("routing.rng_draws_per_cycle", None)
            names = [m["name"] for m in definitions["per_layer"]]
            unknown = set(samples) - set(names)
            if unknown:
                raise SystemExit(
                    f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
            per_layer = {key: _summary(samples[key]) for key in names}

        problems = [p for result in untraced + traced
                    for p in result.problems]
        if any(r.fingerprint != first.fingerprint for r in untraced):
            problems.append("untraced passes disagree on the simulated "
                            "results")
        if not traced_same:
            problems.append("the traced pass changed the simulated results")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(bench_points)
    failed_count = attempted if problems else len(failed)
    host["speed_probe_s"] = statistics.median(probes)
    noisy = close_host_block(host)
    return {
        "schema": SCHEMA, "workload": name, "seed": seed, "tiny": tiny,
        "seconds": seconds, "trace": trace, "host": host, "noisy": noisy,
        "passes": len(untraced), "pass_wall_s": [r.wall_s for r in untraced],
        "attempted": attempted, "failed": failed_count,
        "fail_share": failed_count / attempted,
        "failures": ([f"point {i}: {why}" for i, why in sorted(failed.items())]
                     + problems),
        "sim_fingerprint": first.fingerprint,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "span_self_s": self_times(tracer.spans), "spans": tracer.spans,
    }


def _units(definitions) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in definitions["end_to_end"] + definitions["per_layer"]}


def print_detail(detail: Dict[str, object], units: Dict[str, str]) -> None:
    """Every metric by name with its unit, for a person."""
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"points {detail['attempted']}  passes {detail['passes']}  "
          f"failed {detail['failed']}/{detail['attempted']}"
          + ("  NOISY" if detail["noisy"] else ""))
    print(f"  sim_fingerprint {detail['sim_fingerprint']}")
    for name, row in detail["end_to_end"].items():
        print(f"  {name:<22} {row['value']:>14.6g} {units[name]:<17} "
              f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}")
    for name, row in detail["per_layer"].items():
        if row is None:
            print(f"  {name:<46} {'n/a':>14}")
        else:
            print(f"  {name:<46} {row['value']:>14.6g} {units[name]:<12} "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}")
    for name, value in sorted(detail["span_self_s"].items()):
        print(f"  span {name:<41} {value:>14.6g} s self")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")


def result_line(detail: Dict[str, object], units: Dict[str, str]) -> str:
    """The one-line JSON object the benchmark driver reads.

    The driver wants a number for every metric, so a per-layer metric that
    is n/a reads 0 here; the line printed just before names those.
    """
    rows = detail["per_layer" if detail["trace"] else "end_to_end"]
    return json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": row["value"] if row else 0.0,
                           "unit": units[name]}
                    for name, row in rows.items()},
    })


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args, definitions) -> Dict[str, object]:
    host = host_block()
    scratch = ROOT / ".bench_work" / f"all-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    record = {"schema": SCHEMA, "seed": args.seed, "tiny": args.tiny,
              "seconds": args.seconds, "definitions": definitions,
              "gate": load_gate(), "host": host, "workloads": {}}
    units = _units(definitions)
    try:
        for workload in definitions["workloads"]:
            merged: Optional[Dict[str, object]] = None
            for trace in ([0, 1] if args.trace else [0]):
                out = scratch / f"{workload['name']}-{trace}.json"
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload["name"],
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--output", str(out),
                           "--check" if args.check else "--no-check"]
                if args.tiny:
                    command.append("--tiny")
                if trace and args.trace_output:
                    stem = Path(args.trace_output)
                    command += ["--trace-output", str(stem.with_name(
                        f"{stem.stem}.{workload['name']}{stem.suffix}"))]
                subprocess.run(command, check=True, cwd=ROOT,
                               stdout=subprocess.DEVNULL)
                detail = json.loads(out.read_text(encoding="utf-8"))
                if merged is None:
                    merged = detail
                else:
                    # The traced run contributes the layer view only; the
                    # end-to-end numbers stay those measured untraced.
                    merged["per_layer"] = detail["per_layer"]
                    merged["span_self_s"] = detail["span_self_s"]
                    merged["traced_fingerprint"] = detail["sim_fingerprint"]
                    merged["failed"] = max(merged["failed"], detail["failed"])
                    merged["failures"] += [f for f in detail["failures"]
                                           if f not in merged["failures"]]
                    merged["noisy"] = merged["noisy"] or detail["noisy"]
            merged["fail_share"] = merged["failed"] / merged["attempted"]
            print_detail(merged, units)
            record["workloads"][workload["name"]] = merged
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["noisy"] = close_host_block(host) or any(
        w["noisy"] for w in record["workloads"].values())
    return record


def main(argv=None) -> int:
    _bootstrap()
    definitions = load_definitions()
    names = [w["name"] for w in definitions["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="measure this workload in-process and print "
                        "the driver's result line (default: every workload, "
                        "each in its own subprocess)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=definitions["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the traced pass and reports the "
                        "per-layer metrics")
    parser.add_argument("--check", action=argparse.BooleanOptionalAction,
                        default=True, help="run the correctness checks")
    parser.add_argument("--tiny", action="store_true",
                        help="shrunk workloads for the self-test")
    parser.add_argument("--output", help="write the full record as JSON")
    parser.add_argument("--trace-output", help="write the spans as JSON")
    args = parser.parse_args(argv)

    if args.workload is None:
        record = run_all(args, definitions)
        if args.output:
            Path(args.output).write_text(
                json.dumps(record, indent=1) + "\n",
                encoding="utf-8")
        return 0 if all(w["failed"] == 0
                        for w in record["workloads"].values()) else 1

    detail = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.check, args.tiny)
    spans = detail.pop("spans")
    if args.trace_output:
        from benchmarks.perf.spans import write_spans

        write_spans(args.trace_output, spans)
    if args.output:
        Path(args.output).write_text(
            json.dumps(detail, indent=1) + "\n",
            encoding="utf-8")
    units = _units(definitions)
    print_detail(detail, units)
    absent = [name for name, row in detail["per_layer"].items() if row is None]
    if absent:
        print("n/a on this workload or host, 0 in the result line: "
              + " ".join(absent))
    print(result_line(detail, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
