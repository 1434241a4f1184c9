"""Command-line interface.

Usage examples::

    python -m repro.cli designs
    python -m repro.cli run --design mesh:favors-min-spin-1vc \\
        --pattern transpose --rate 0.15
    python -m repro.cli sweep --design mesh:westfirst-3vc --pattern uniform \\
        --rates 0.05,0.1,0.15,0.2,0.3
    python -m repro.cli sweep --design spin_mesh --pattern uniform \\
        --rates 0.05,0.1,0.15 --jobs 4 --output out.json
    python -m repro.cli area --radix 5 --vcs 3
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from repro.config import SimulationConfig
from repro.errors import ConfigurationError, ReproError
from repro.faults import parse_fault_spec
from repro.harness.configs import (
    ALL_DESIGNS,
    build_network,
    get_design,
    resolve_design_name,
)
from repro.harness.runner import ExperimentSpec
from repro.harness.tables import format_table
from repro.sim import ENGINE_ENV_VAR, available_engines
from repro.verify.differential import DEFAULT_TRIAD, run_conformance
from repro.power.model import AreaModel, EnergyModel, RouterSpec
from repro.stats.results import save_results
from repro.stats.sweep import curve_saturation_rate


def _sim_config(args) -> SimulationConfig:
    return SimulationConfig(
        warmup_cycles=args.warmup,
        measure_cycles=args.measure,
        drain_cycles=args.drain,
        deadlock_abort_cycles=args.abort_cycles,
    )


def _parse_list(text: str, flag: str, convert) -> list:
    """Parse a comma-separated ``flag`` value, converting every item."""
    try:
        return [convert(part) for part in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"{flag} expects a comma-separated list of {convert.__name__} "
            f"values", value=text) from None


def _parse_dragonfly(text: str) -> tuple:
    """Parse and validate ``p,a,h`` dragonfly dimensions."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(
            "--dragonfly expects exactly three comma-separated integers "
            "p,a,h (e.g. 2,4,2)", value=text)
    try:
        dims = tuple(int(part) for part in parts)
    except ValueError:
        raise ConfigurationError(
            "--dragonfly dimensions must be integers (e.g. 2,4,2)",
            value=text) from None
    if min(dims) < 1:
        raise ConfigurationError(
            "--dragonfly dimensions must all be >= 1", value=text)
    return dims


def _validate_run_args(args) -> list:
    """Friendly rejection of out-of-range CLI inputs (fail before cycles).

    Returns the parsed ``--rates`` list (empty without the flag).
    """
    rate = getattr(args, "rate", None)
    rates = (_parse_list(args.rates, "--rates", float)
             if getattr(args, "rates", None) else [])
    for value in ([rate] if rate is not None else rates):
        if not 0.0 < value <= 1.0:
            raise ConfigurationError(
                "offered load must be in (0, 1] flits/node/cycle",
                rate=value)
    if args.seed < 0:
        raise ConfigurationError("--seed must be >= 0", seed=args.seed)
    if args.tdd is not None and args.tdd < 1:
        raise ConfigurationError("--tdd must be >= 1", tdd=args.tdd)
    if args.mesh_side < 2:
        raise ConfigurationError("--mesh-side must be >= 2",
                                 mesh_side=args.mesh_side)
    if args.fault_seed < 0:
        raise ConfigurationError("--fault-seed must be >= 0",
                                 fault_seed=args.fault_seed)
    if getattr(args, "jobs", 1) < 1:
        raise ConfigurationError("--jobs must be >= 1", jobs=args.jobs)
    if getattr(args, "retries", 0) < 0:
        raise ConfigurationError("--retries must be >= 0",
                                 retries=args.retries)
    max_failures = getattr(args, "max_failures", None)
    if max_failures is not None and max_failures < 0:
        raise ConfigurationError("--max-failures must be >= 0",
                                 max_failures=max_failures)
    hang_timeout = getattr(args, "hang_timeout", None)
    if hang_timeout is not None and hang_timeout <= 0:
        raise ConfigurationError("--hang-timeout must be positive",
                                 hang_timeout=hang_timeout)
    if args.faults:
        parse_fault_spec(args.faults)  # raises FaultInjectionError on typos
    return rates


def _spec_from_args(args, *, rate=None, engine=None,
                    telemetry=None) -> ExperimentSpec:
    """The run flags' :class:`ExperimentSpec`; ``rate``, ``engine`` and
    ``telemetry`` replace ``--rate``, ``--engine`` and ``--telemetry``."""
    return ExperimentSpec(
        design=args.design, pattern=args.pattern,
        injection_rate=args.rate if rate is None else rate,
        seed=args.seed, mesh_side=args.mesh_side,
        dragonfly=_parse_dragonfly(args.dragonfly), tdd=args.tdd,
        faults=args.faults, fault_seed=args.fault_seed,
        sim=_sim_config(args), verify=args.verify,
        telemetry=args.telemetry if telemetry is None else telemetry,
        engine=(args.engine or "") if engine is None else engine)


def _add_run_args(parser: argparse.ArgumentParser,
                  design_required: bool = True) -> None:
    parser.add_argument("--design", required=design_required,
                        help="design name (see `designs`)")
    parser.add_argument("--pattern", default="uniform",
                        help="traffic pattern name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mesh-side", type=int, default=8)
    parser.add_argument("--dragonfly", default="2,4,2",
                        help="p,a,h (paper scale: 4,8,4)")
    parser.add_argument("--tdd", type=int, default=None,
                        help="SPIN detection threshold override")
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--measure", type=int, default=3000)
    parser.add_argument("--drain", type=int, default=3000)
    parser.add_argument("--abort-cycles", type=int, default=2000)
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault-injection spec, e.g. "
                        "'link_down@1000:r3-r4,sm_drop:p=0.01' "
                        "(see docs/FAULTS.md)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for probabilistic fault realization")
    parser.add_argument("--verify", action="store_true",
                        help="attach the runtime invariant oracle; the run "
                        "fails on the first violated invariant "
                        "(docs/VERIFY.md)")
    parser.add_argument("--telemetry", action="store_true",
                        help="attach the recording telemetry observer; "
                        "telemetry_* tallies land in the point's event "
                        "counters (docs/TELEMETRY.md)")
    parser.add_argument("--engine", default=None,
                        choices=available_engines(),
                        help="simulation engine (default: the "
                        f"{ENGINE_ENV_VAR} environment variable, else "
                        "'reference'; engines are bit-identical — 'fast' "
                        "skips provably-no-op work, see docs/API.md)")


def _engine_path(engine: Optional[str], network,
                 faults: bool = False) -> tuple:
    """Which datapath an engine request runs on a network (``faults``: a
    fault injector will be bound to it; a bound one is seen anyway).

    Returns ``(engine_path, fallback_reason)`` and, when ``fast`` was asked
    for and bought nothing, says so once on stderr — outside the results,
    which are identical on either path.
    """
    from repro.sim.engine_api import resolve_engine_name
    from repro.sim.fastcore import fallback_reason

    if resolve_engine_name(engine or None) != "fast":
        return "reference-schedule", None
    reason = fallback_reason(network, faults)
    if reason is None:
        return "soa", None
    print(f"note: engine 'fast' ran the reference schedule here "
          f"({reason}); results are identical, only the speed-up is lost",
          file=sys.stderr)
    return "reference-schedule", reason


def cmd_designs(args) -> int:
    rows = [
        [name, d.topology, d.vcs_per_vnet, d.theory, d.scheme, d.adaptive]
        for name, d in sorted(ALL_DESIGNS.items())
    ]
    print(format_table(
        ["Name", "Topology", "VCs", "Theory", "Scheme", "Adaptivity"],
        rows, title="Available designs (Table III registry)"))
    return 0


def cmd_run(args) -> int:
    get_design(args.design)  # fail fast with the full list on a typo
    _validate_run_args(args)
    spec = _spec_from_args(args)
    profiler = None
    if getattr(args, "profile", False):
        from repro.sim import PhaseProfiler

        profiler = PhaseProfiler()
    network, point = spec.run(profiler=profiler)
    engine_path, reason = _engine_path(args.engine, network)
    rows = [
        ["offered load (flits/node/cycle)", args.rate],
        ["mean latency (cycles)", round(point.mean_latency, 2)],
        ["p99 latency (cycles)", round(point.p99_latency, 2)],
        ["received throughput", round(point.throughput, 4)],
        ["delivery ratio", round(point.delivery_ratio, 4)],
        ["wedged", point.wedged],
        ["spins", point.events.get("spins", 0)],
        ["probes sent", point.events.get("probes_sent", 0)],
        ["mean hops", round(network.stats.mean_hops(), 3)],
    ]
    if args.telemetry:
        rows += [
            ["telemetry samples", point.events.get("telemetry_samples", 0)],
            ["SPIN spans traced", point.events.get("telemetry_spans", 0)],
            ["spans recovered",
             point.events.get("telemetry_spans_recovered", 0)],
        ]
    if args.faults:
        rows += [
            ["faults injected", point.events.get("faults_injected", 0)],
            ["SMs dropped", point.events.get("sm_dropped", 0)],
            ["watchdog fires", point.events.get("watchdog_fires", 0)],
            ["SM retries", point.events.get("sm_retries", 0)],
            ["reroutes", point.events.get("reroutes", 0)],
            ["packets lost", point.packets_lost],
            ["recoveries after fault",
             point.events.get("recoveries_after_fault", 0)],
        ]
    print(format_table(
        ["Metric", "Value"], rows,
        title=f"{args.design} / {args.pattern} @ {args.rate}"))
    from repro.telemetry.report import sm_fate_lines

    for line in sm_fate_lines(point.events):
        print(line)
    if profiler is not None:
        from repro.sim import render_report
        from repro.sim.engine_api import resolve_engine_name

        engine_name = resolve_engine_name(args.engine or None)
        print()
        print(render_report(profiler.report(
            engine_name, point.cycles, engine_path=engine_path,
            fallback_reason=reason)))
    return 0


def _sweep_campaign_inputs(args):
    """Resolve the sweep's specs, meta and campaign directory.

    Three shapes: ``--resume DIR`` rebuilds everything from the campaign
    manifest; ``--campaign DIR`` journals a (possibly pre-existing,
    matching) campaign; neither runs ephemerally.  Returns
    ``(specs, meta, campaign_dir, output, title)``.
    """
    from repro.harness.campaign import load_manifest, write_manifest

    if args.resume and args.campaign:
        raise ConfigurationError(
            "--resume and --campaign are mutually exclusive")
    if args.resume:
        if args.design or args.rates:
            raise ConfigurationError(
                "--resume reconstructs the sweep from the manifest; "
                "drop --design/--rates", resume=args.resume)
        specs, meta, settings = load_manifest(args.resume)
        output = args.output or settings.get("output")
        title = f"{meta.get('design')} / {meta.get('pattern')} (resumed)"
        return specs, meta, args.resume, output, title
    if not args.design or not args.rates:
        raise ConfigurationError(
            "sweep needs --design and --rates (or --resume DIR)")
    get_design(args.design)  # fail fast with the full list on a typo
    rates = _validate_run_args(args)
    base = _spec_from_args(args, rate=rates[0])
    specs = base.curve(rates)
    # The meta block is deliberately deterministic (no timestamps, no
    # worker count), so the same sweep writes byte-identical files
    # regardless of --jobs — and regardless of interruptions + resumes.
    meta = {
        "design": resolve_design_name(args.design),
        "pattern": args.pattern,
        "seed": args.seed,
        "rates": rates,
        "faults": base.faults,
        "fault_seed": args.fault_seed,
    }
    if base.engine:
        # Only a pinned engine is sweep identity (engines are bit-identical;
        # an unset field keeps pre-engine manifests byte-compatible).
        meta["engine"] = base.engine
    if args.campaign:
        from pathlib import Path

        manifest = Path(args.campaign) / "manifest.json"
        if manifest.exists():
            stored, stored_meta, _ = load_manifest(args.campaign)
            if [s.content_key() for s in stored] != \
                    [s.content_key() for s in specs]:
                raise ConfigurationError(
                    "campaign directory belongs to a different sweep; "
                    "use --resume or a fresh directory",
                    campaign=args.campaign)
            meta = stored_meta
        else:
            write_manifest(args.campaign, specs, meta,
                           settings={"output": args.output})
    return specs, meta, args.campaign, args.output, \
        f"{args.design} / {args.pattern}"


def _print_failure_summary(failed) -> None:
    """Per-error-class failure table (satellite of docs/CAMPAIGNS.md)."""
    from repro.harness.supervision import error_class

    classes = {}
    for result in failed:
        label = error_class(result.error)
        count, example = classes.get(label, (0, None))
        classes[label] = (count + 1, example or result.spec)
    rows = [
        [label, count,
         f"{example.design} @ {example.injection_rate}"]
        for label, (count, example) in sorted(classes.items())
    ]
    print(format_table(
        ["Error class", "Points", "First failing spec"],
        rows, title=f"{len(failed)} point(s) failed"))


def cmd_sweep(args) -> int:
    """Run (or resume) a sweep; see docs/CAMPAIGNS.md for exit codes.

    0 success · 1 some points failed · 3 failure budget exhausted ·
    128+signum when draining on SIGINT/SIGTERM (the journal stays
    resumable) · 2 configuration errors (via the ReproError handler).
    """
    from repro.harness.campaign import CampaignConfig, CampaignEngine
    from repro.harness.supervision import RetryPolicy

    specs, meta, campaign_dir, output, title = _sweep_campaign_inputs(args)
    if specs and specs[0].effective_engine() == "fast":
        # Every point of a sweep shares the design, so one throw-away
        # network tells which datapath the workers will run.
        first = specs[0]
        _engine_path(first.engine, build_network(
            first.design, seed=first.seed, mesh_side=first.mesh_side,
            dragonfly=first.dragonfly, tdd=first.tdd), bool(first.faults))
    engine = CampaignEngine(
        specs, directory=campaign_dir,
        config=CampaignConfig(
            jobs=args.jobs,
            retry=RetryPolicy(retries=args.retries),
            max_failures=args.max_failures,
            hang_timeout=args.hang_timeout,
            stream=not args.no_stream))
    report = engine.run()
    rows = [
        [p.injection_rate, round(p.mean_latency, 1), round(p.throughput, 4),
         round(p.delivery_ratio, 3), p.wedged, p.events.get("spins", 0)]
        for p in report.points
    ]
    print(format_table(
        ["Rate", "Mean latency", "Throughput", "Delivered", "Wedged",
         "Spins"],
        rows, title=title))
    saturation = curve_saturation_rate(report.points,
                                       engine.config.latency_cap)
    print(f"\nsaturation rate: {saturation}")
    if campaign_dir and report.counters:
        tallies = " ".join(f"{name}={value}" for name, value
                           in sorted(report.counters.items()))
        print(f"campaign: {tallies}")
    if report.failed:
        _print_failure_summary(report.failed)
    if not report.completed and not report.clean:
        if report.status.startswith("interrupted:"):
            signame = report.status.split(":", 1)[1]
            print(f"campaign drained on {signame}; resume with: "
                  f"python -m repro.cli sweep --resume {campaign_dir}"
                  if campaign_dir else
                  f"sweep interrupted by {signame} (no campaign journal "
                  f"to resume; rerun with --campaign DIR)")
            signum = getattr(signal, signame, None)
            return 128 + int(signum) if signum is not None else 1
        print("campaign aborted: failure budget exhausted "
              f"(--max-failures {args.max_failures})")
        return 3
    if output and report.clean:
        meta = dict(meta)
        meta["saturation_rate"] = saturation
        path = save_results(output, report.points, meta)
        print(f"wrote {len(report.points)} points to {path}")
    return 1 if report.failed else 0


def cmd_verify(args) -> int:
    """Differential conformance: same seeded load, several theories."""
    designs = ([resolve_design_name(name)
                for name in args.designs.split(",")]
               if args.designs else list(DEFAULT_TRIAD))
    seeds = _parse_list(args.seeds, "--seeds", int)
    if len(designs) < 2:
        raise ConfigurationError(
            "--designs needs at least two comma-separated names",
            designs=designs)
    if not 0.0 < args.rate <= 1.0:
        raise ConfigurationError(
            "offered load must be in (0, 1] flits/node/cycle",
            rate=args.rate)
    if any(seed < 0 for seed in seeds):
        raise ConfigurationError("--seeds must all be >= 0", seeds=seeds)
    reports = []
    for seed in seeds:
        report = run_conformance(
            pattern=args.pattern, injection_rate=args.rate, seed=seed,
            designs=designs, mesh_side=args.mesh_side,
            engine=args.engine or "")
        reports.append(report)
        print(report.summary())
        print()
    agreed = all(report.agreed for report in reports)
    print(f"verdict: {len(reports)} seed(s), "
          + ("all agreed" if agreed else "DISAGREEMENT"))
    if args.output:
        import json

        payload = {
            "format": "repro.verify-conformance/v1",
            "agreed": agreed,
            "reports": [report.to_dict() for report in reports],
        }
        with open(args.output, "w", encoding="ascii") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if agreed else 1


def cmd_model_check(args) -> int:
    """Exhaustively model-check the SPIN control plane on a tiny design."""
    import json

    from repro.verify.model import ModelChecker
    from repro.verify.model.designs import DESIGNS
    from repro.verify.model.transitions import MUTATIONS

    if args.design not in DESIGNS:
        raise ConfigurationError(
            f"unknown model design {args.design!r}",
            known=sorted(DESIGNS))
    if args.mutation is not None and args.mutation not in MUTATIONS:
        raise ConfigurationError(
            f"unknown mutation {args.mutation!r}", known=sorted(MUTATIONS))
    design = DESIGNS[args.design]
    config = design.model_config(
        initiators=None if args.race else 1,
        probe_budget=args.probe_budget,
        drop_budget=args.drop_budget,
        probe_move_enabled=(args.scheme == "spin-pm"),
        mutation=args.mutation,
    )

    reports = peak_frontier = 0

    def progress(visited: int, frontier: int, depth: int) -> None:
        nonlocal reports, peak_frontier
        reports += 1
        peak_frontier = max(peak_frontier, frontier)
        if not args.quiet:
            print(f"  ... visited={visited} frontier={frontier} "
                  f"depth={depth}", file=sys.stderr)

    checker = ModelChecker(config, weights=design.weights(),
                           persistence_bound=design.persistence_bound())
    result = checker.run(max_depth=args.max_depth,
                         max_states=args.max_states, progress=progress,
                         progress_every=args.progress_every)

    mode = "race" if args.race else "single-initiator"
    rows = [
        ["design", f"{args.design} ({design.description})"],
        ["scheme", args.scheme],
        ["mode", f"{mode}, drops<={config.drop_budget}, "
                 f"probes<={config.probe_budget}"],
        ["mutation", args.mutation or "none"],
        ["visited states", result.visited],
        ["transitions", result.transitions],
        ["max depth", result.max_depth],
        ["exhausted", "yes" if result.complete else
         "NO (hit --max-depth/--max-states)"],
    ]
    live = result.liveness
    if live is not None:
        rows += [
            ["terminals", f"{live.terminal_states} "
             f"({live.resolved_terminals} resolved, "
             f"{live.degraded_terminals} cleanly degraded)"],
            ["detection bound", f"{live.detection_cycles} cycles "
             f"({live.detection_steps} steps) to first commit"],
            ["spin-termination bound", f"{live.recovery_cycles} cycles "
             f"({live.recovery_steps} steps) to resolution"],
            ["persistence bound", f"{live.persistence_bound} cycles "
             f"(spin_persistence_bound)"],
            ["bounds proved", {True: "YES", False: "NO",
                               None: "n/a"}[live.bounds_proved]],
        ]
    print(format_table(["property", "value"], rows,
                       title="SPIN control-plane model check"))
    if result.counterexample is not None:
        print()
        print(result.counterexample.describe())
        print(f"\nmaps to invariant family: "
              f"{result.counterexample.violation.invariant}")

    if args.output:
        payload = result.summary()
        payload["design"] = args.design
        payload["scheme"] = args.scheme
        payload["telemetry"] = {
            "progress_reports": reports,
            "peak_frontier": peak_frontier,
        }
        with open(args.output, "w", encoding="ascii") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    # Exit contract: a violation (or a failed liveness/bounds proof on an
    # exhausted space) fails; a capped-but-violation-free exploration is a
    # bounded check and passes, with "exhausted: NO" in the table.
    ok = result.ok
    if live is not None:
        ok = ok and live.live and live.bounds_proved is not False
    return 0 if ok else 1


def _topology_meta(network) -> dict:
    """Header fields describing the traced network's shape."""
    topology = network.topology
    name = type(topology).__name__.replace("Topology", "").lower()
    meta = {"topology": name}
    cols = getattr(topology, "cols", None)
    if name == "mesh" and cols:
        meta["mesh_side"] = cols
    return meta


def _trace_campaign(args) -> int:
    """Convert a campaign's ``stream.jsonl`` into trace artifacts.

    The campaign-level twin of the single-run trace: worker telemetry
    frames become a Chrome trace (one thread per worker, one slice per
    point) plus a normalized JSONL copy of the frames.
    """
    import json
    from pathlib import Path

    from repro.telemetry import (
        read_stream_log,
        stream_chrome_trace,
        stream_summary,
    )
    from repro.telemetry.live import STREAM_LOG_NAME

    log_path = Path(args.campaign) / STREAM_LOG_NAME
    frames = read_stream_log(log_path)
    if not frames:
        raise ConfigurationError(
            f"no stream frames in {log_path}; the campaign must have run "
            "with the live plane enabled (drop --no-stream)",
            campaign=args.campaign)
    jsonl_path = f"{args.output}.jsonl"
    chrome_path = f"{args.output}.chrome.json"
    with open(jsonl_path, "w", encoding="utf-8") as handle:
        for frame in frames:
            handle.write(json.dumps(frame, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    with open(chrome_path, "w", encoding="utf-8") as handle:
        json.dump(stream_chrome_trace(frames), handle, sort_keys=True)
        handle.write("\n")
    summary = stream_summary(frames)
    print(f"campaign stream: {summary['frames']} frames from "
          f"{len(summary['workers'])} worker(s) over "
          f"{len(summary['points'])} point(s)")
    print(f"wrote {jsonl_path} ({len(frames)} frames)")
    print(f"wrote {chrome_path}")
    return 0


def cmd_trace(args) -> int:
    """Record one run under telemetry; emit JSONL + Chrome trace files."""
    import json

    from repro.telemetry import (
        TelemetryConfig,
        TelemetryObserver,
        build_records,
        chrome_trace,
        write_jsonl,
    )

    if args.campaign:
        return _trace_campaign(args)
    if args.interval < 1:
        raise ConfigurationError("--interval must be >= 1",
                                 interval=args.interval)
    config = TelemetryConfig(sample_interval=args.interval,
                             packet_traces=args.packet_traces)

    if args.scenario:
        from repro.sim import create_engine
        from repro.verify.golden import SCENARIOS

        if args.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {args.scenario!r}",
                known=sorted(SCENARIOS))
        scenario = SCENARIOS[args.scenario]
        network, traffic = scenario.builder()
        simulator = create_engine(args.engine)
        if traffic is not None:
            simulator.register(traffic)
        simulator.register(network)
        observer = TelemetryObserver(network, config).attach(simulator)
        simulator.run(scenario.cycles)
        observer.finalize(simulator.cycle)
        meta = {"scenario": scenario.name, "cycles": simulator.cycle}
        for key in ("routing", "tdd", "rate", "seed"):
            if key in scenario.params:
                meta[key] = scenario.params[key]
    else:
        if not args.design or args.rate is None:
            raise ConfigurationError(
                "trace needs --design and --rate (or --scenario NAME)")
        get_design(args.design)  # fail fast with the full list on a typo
        _validate_run_args(args)
        from repro.stats.sweep import simulate_point

        spec = _spec_from_args(args, telemetry=False)
        network, traffic, injector = spec.build()
        observer = TelemetryObserver(network, config)
        point = simulate_point(network, traffic, spec.sim,
                               injection_rate=spec.injection_rate,
                               injector=injector, verify=spec.verify,
                               telemetry_observer=observer,
                               engine=spec.engine or None)
        meta = {"design": spec.design, "pattern": spec.pattern,
                "injection_rate": spec.injection_rate, "seed": spec.seed,
                "cycles": point.cycles, "wedged": point.wedged}
    meta.update(_topology_meta(network))

    records = build_records(observer, meta)
    jsonl_path = f"{args.output}.jsonl"
    chrome_path = f"{args.output}.chrome.json"
    lines = write_jsonl(jsonl_path, records)
    with open(chrome_path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(records), handle, sort_keys=True)
        handle.write("\n")
    episodes = sum(1 for span in observer.spans
                   if span.kind == "spin_episode")
    print(f"recorded {len(observer.samples)} samples, "
          f"{episodes} SPIN episode(s), "
          f"{len(observer.spans) - episodes} frozen span(s), "
          f"{len(observer.hops)} hop record(s)")
    print(f"wrote {jsonl_path} ({lines} records)")
    print(f"wrote {chrome_path}")
    return 0


def cmd_report(args) -> int:
    """Summarize a telemetry log — or a whole campaign directory."""
    from pathlib import Path

    from repro.telemetry import TraceReport

    if args.top_links < 1:
        raise ConfigurationError("--top-links must be >= 1",
                                 top_links=args.top_links)
    path = Path(args.trace)
    if not path.exists():
        raise ConfigurationError(
            f"{path} does not exist — pass a TRACE.jsonl file or a "
            "campaign directory", trace=args.trace)
    if path.is_dir():
        if not (path / "manifest.json").exists():
            raise ConfigurationError(
                f"{path} is a directory but has no manifest.json — "
                "pass a TRACE.jsonl file or a campaign directory",
                trace=args.trace)
        from repro.telemetry.watch import render_campaign_report

        sys.stdout.write(render_campaign_report(path))
        return 0
    report = TraceReport.load(args.trace)
    print(report.render(top_links=args.top_links))
    return 0


def cmd_area(args) -> int:
    spec = RouterSpec(radix=args.radix, vcs=args.vcs,
                      buffer_depth=args.depth, flit_bits=args.flit_bits)
    area_model = AreaModel()
    energy_model = EnergyModel()
    rows = [
        ["router area (a.u.)", round(area_model.router_area(spec), 1)],
        ["router power (a.u.)", round(energy_model.router_power(spec), 1)],
        ["+ SPIN modules", round(area_model.spin_overhead(
            spec, args.routers), 1)],
        ["+ static bubble", round(area_model.static_bubble_overhead(spec), 1)],
        ["+ escape VC", round(area_model.escape_vc_overhead(spec), 1)],
    ]
    print(format_table(["Quantity", "Value"], rows,
                       title=f"radix={args.radix} vcs={args.vcs}"))
    return 0


def cmd_watch(args) -> int:
    """Live plain-ANSI dashboard over a campaign's ``status.json``.

    ``--once`` renders a single frame (the CI smoke path); otherwise the
    screen refreshes every ``--interval`` seconds until the campaign
    reaches a terminal status or the user hits Ctrl-C.
    """
    import time

    from repro.telemetry.watch import load_status, render_watch

    if args.interval <= 0:
        raise ConfigurationError("--interval must be positive",
                                 interval=args.interval)
    if args.once:
        sys.stdout.write(render_watch(args.directory))
        return 0
    try:
        while True:
            frame = render_watch(args.directory)
            sys.stdout.write("\x1b[2J\x1b[H" + frame)
            sys.stdout.flush()
            status = load_status(args.directory)
            if status is not None and status.get("status") != "running":
                print(f"\ncampaign {status.get('status')}; exiting watch")
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def cmd_serve_metrics(args) -> int:
    """Prometheus text exposition over a campaign's ``status.json``."""
    from repro.telemetry.prometheus import serve

    if args.port < 0 or args.port > 65535:
        raise ConfigurationError("--port must be in [0, 65535]",
                                 port=args.port)
    return serve(args.directory, port=args.port, once=args.once)


def cmd_profile(args) -> int:
    """Phase-profile one design point under each engine and compare.

    Runs the same spec per engine with an attached
    :class:`repro.sim.profile.PhaseProfiler`, prints each phase table,
    and cross-checks that the profiled points are identical (profiling
    must never perturb simulation; engines are bit-identical).
    """
    import time

    from repro.sim import PhaseProfiler, PROFILE_SCHEMA, render_report
    from repro.sim.engine_api import resolve_engine_name
    from repro.sim.profile import write_report

    get_design(args.design)  # fail fast with the full list on a typo
    _validate_run_args(args)
    engines_text = args.engines or args.engine or "reference,fast"
    engines = [name.strip() for name in engines_text.split(",")
               if name.strip()]
    known = available_engines()
    for name in engines:
        if name not in known:
            raise ConfigurationError(f"unknown engine {name!r}",
                                     known=sorted(known))
    if not engines:
        raise ConfigurationError("--engines must name at least one engine")

    reports = {}
    fingerprints = {}
    for name in engines:
        spec = _spec_from_args(args, engine=name)
        profiler = PhaseProfiler()
        start = time.perf_counter()
        network, point = spec.run(profiler=profiler)
        wall = time.perf_counter() - start
        engine_path, reason = _engine_path(name, network)
        report = profiler.report(resolve_engine_name(name), point.cycles,
                                 wall_seconds=wall, engine_path=engine_path,
                                 fallback_reason=reason)
        reports[resolve_engine_name(name)] = report
        fingerprints[name] = (point.delivered, point.cycles,
                              round(point.mean_latency, 9),
                              point.events.get("spins", 0))
        print(render_report(report))
        print()
    agreed = len(set(fingerprints.values())) <= 1
    if agreed:
        delivered, cycles, _, spins = next(iter(fingerprints.values()))
        print(f"engines agree on the profiled point "
              f"(delivered={delivered} cycles={cycles} spins={spins})")
    else:
        print("WARNING: engines disagreed on the profiled point — "
              "engines are bit-identical, so this is a bug:")
        for name, fingerprint in fingerprints.items():
            print(f"  {name}: delivered/cycles/latency/spins = "
                  f"{fingerprint}")
    if args.output:
        payload = {
            "schema": PROFILE_SCHEMA,
            "design": resolve_design_name(args.design),
            "pattern": args.pattern,
            "rate": args.rate,
            "seed": args.seed,
            "identical_points": agreed,
            "reports": reports,
        }
        write_report(args.output, payload)
        print(f"wrote {args.output}")
    return 0 if agreed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SPIN (ISCA 2018) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="list design configurations")

    run_parser = sub.add_parser("run", help="simulate one design point")
    _add_run_args(run_parser)
    run_parser.add_argument("--rate", type=float, required=True,
                            help="offered load in flits/node/cycle")
    run_parser.add_argument("--profile", action="store_true",
                            help="attach the phase profiler and print a "
                            "repro.profile/v1 phase breakdown after the "
                            "metrics (never changes results; "
                            "docs/OBSERVE.md)")

    sweep_parser = sub.add_parser(
        "sweep",
        help="latency-vs-injection sweep (crash-safe with --campaign; "
        "see docs/CAMPAIGNS.md)")
    _add_run_args(sweep_parser, design_required=False)
    sweep_parser.add_argument("--rates", default=None,
                              help="comma-separated offered loads "
                              "(required unless --resume)")
    sweep_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                              help="worker processes (1 = serial; results "
                              "are identical either way)")
    sweep_parser.add_argument("--output", default=None, metavar="FILE.json",
                              help="write the points as a "
                              "repro.sweep-results/v1 JSON file")
    sweep_parser.add_argument("--campaign", default=None, metavar="DIR",
                              help="journal completed points durably into "
                              "DIR (repro.campaign/v1) so an interrupted "
                              "sweep can be resumed")
    sweep_parser.add_argument("--resume", default=None, metavar="DIR",
                              help="resume the campaign journaled in DIR; "
                              "already-completed points are skipped and "
                              "the final artifact is byte-identical to an "
                              "uninterrupted run")
    sweep_parser.add_argument("--retries", type=int, default=2, metavar="N",
                              help="bounded retries for transient worker "
                              "failures (crash/hang/timeout), with "
                              "deterministic exponential backoff "
                              "(default: %(default)s)")
    sweep_parser.add_argument("--max-failures", type=int, default=None,
                              metavar="N",
                              help="abort the campaign (exit 3) once more "
                              "than N points have permanently failed "
                              "(default: unlimited)")
    sweep_parser.add_argument("--hang-timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="kill and respawn a worker whose point "
                              "exceeds this wall-clock budget (counts as "
                              "a transient failure; default: off)")
    sweep_parser.add_argument("--no-stream", action="store_true",
                              help="disable the live observability plane "
                              "(no status.json/stream.jsonl in the "
                              "campaign directory); sweep results are "
                              "byte-identical either way "
                              "(docs/OBSERVE.md)")

    verify_parser = sub.add_parser(
        "verify",
        help="differential conformance: run the same seeded experiment "
        "under several deadlock-freedom theories and assert agreement")
    verify_parser.add_argument(
        "--designs", default=None,
        help="comma-separated design names sharing one topology/size "
        f"(default: {','.join(DEFAULT_TRIAD)})")
    verify_parser.add_argument("--pattern", default="uniform")
    verify_parser.add_argument("--rate", type=float, default=0.12,
                               help="offered load (keep below saturation "
                               "of every design)")
    verify_parser.add_argument("--seeds", default="1,2,3",
                               help="comma-separated seeds, one "
                               "conformance run each")
    verify_parser.add_argument("--mesh-side", type=int, default=4)
    verify_parser.add_argument("--output", default=None,
                               metavar="FILE.json",
                               help="write the full reports as JSON")
    verify_parser.add_argument("--engine", default=None,
                               choices=available_engines(),
                               help="simulation engine every scheme runs "
                               "under (engines are bit-identical)")

    trace_parser = sub.add_parser(
        "trace",
        help="record one run's telemetry; emit JSONL + Chrome trace files")
    _add_run_args(trace_parser, design_required=False)
    trace_parser.add_argument("--rate", type=float, default=None,
                              help="offered load in flits/node/cycle "
                              "(required unless --scenario)")
    trace_parser.add_argument("--scenario", default=None, metavar="NAME",
                              help="record a pinned golden scenario "
                              "instead of a design point "
                              "(repro.verify.golden, e.g. "
                              "mesh4_square_deadlock)")
    trace_parser.add_argument("--interval", type=int, default=16,
                              help="cycles between metric samples "
                              "(default: %(default)s)")
    trace_parser.add_argument("--packet-traces", action="store_true",
                              help="also record per-packet hop/delivery "
                              "events")
    trace_parser.add_argument("--output", default="trace", metavar="PREFIX",
                              help="writes PREFIX.jsonl and "
                              "PREFIX.chrome.json (default: %(default)s)")
    trace_parser.add_argument("--campaign", default=None, metavar="DIR",
                              help="instead of simulating, convert DIR's "
                              "stream.jsonl (live worker telemetry) into "
                              "PREFIX.jsonl + PREFIX.chrome.json")

    report_parser = sub.add_parser(
        "report",
        help="summarize a recorded telemetry log: SPIN episodes, hot "
        "links, wedge timeline, occupancy heatmap")
    report_parser.add_argument("trace", metavar="TRACE.jsonl|CAMPAIGN_DIR",
                               help="JSONL log written by `trace`, or a "
                               "campaign directory (journal table + "
                               "stream aggregates)")
    report_parser.add_argument("--top-links", type=int, default=8,
                               help="hot links to list "
                               "(default: %(default)s)")

    model_parser = sub.add_parser(
        "model-check",
        help="exhaustively enumerate the SPIN control plane's state "
        "space on a tiny design; prove safety and recovery bounds "
        "(repro.verify.model, docs/VERIFY.md)")
    model_parser.add_argument("--design", default="mesh2x2",
                              help="model design name: mesh2x2, mesh2x3, "
                              "ring3, ring4 (default: %(default)s)")
    model_parser.add_argument("--scheme", default="spin",
                              choices=["spin", "spin-pm"],
                              help="spin-pm enables the PROBE_MOVE "
                              "forwarding-after-progress phase "
                              "(default: %(default)s)")
    model_parser.add_argument("--race", action="store_true",
                              help="let every router initiate recovery "
                              "(full interleaving races); default is the "
                              "pinned single-initiator mode whose "
                              "exhaustive graph proves the latency "
                              "bounds")
    model_parser.add_argument("--drop-budget", type=int, default=0,
                              help="adversarial SM drops to explore "
                              "(default: %(default)s)")
    model_parser.add_argument("--probe-budget", type=int, default=1,
                              help="detection probes each router may "
                              "send (default: %(default)s)")
    model_parser.add_argument("--mutation", default=None,
                              help="inject a named protocol mutation and "
                              "expect a counterexample "
                              "(repro.verify.model.transitions.MUTATIONS)")
    model_parser.add_argument("--max-depth", type=int, default=None,
                              help="BFS depth cap (default: exhaust)")
    model_parser.add_argument("--max-states", type=int, default=1_000_000,
                              help="visited-state cap "
                              "(default: %(default)s)")
    model_parser.add_argument("--progress-every", type=int, default=1000,
                              help="states between progress reports "
                              "(default: %(default)s)")
    model_parser.add_argument("--quiet", action="store_true",
                              help="suppress stderr progress lines "
                              "(telemetry gauges still record)")
    model_parser.add_argument("--output", default=None,
                              metavar="FILE.json",
                              help="write the state-space summary "
                              "artifact as JSON")

    area_parser = sub.add_parser("area", help="router cost model")
    area_parser.add_argument("--radix", type=int, default=5)
    area_parser.add_argument("--vcs", type=int, default=3)
    area_parser.add_argument("--depth", type=int, default=5)
    area_parser.add_argument("--flit-bits", type=int, default=128)
    area_parser.add_argument("--routers", type=int, default=64)

    watch_parser = sub.add_parser(
        "watch",
        help="live dashboard for a running (or finished) campaign "
        "directory: progress, worker health, saturation cursor "
        "(docs/OBSERVE.md)")
    watch_parser.add_argument("directory", metavar="CAMPAIGN_DIR",
                              help="campaign directory (sweep --campaign)")
    watch_parser.add_argument("--once", action="store_true",
                              help="render one frame and exit (scripting "
                              "and CI smoke)")
    watch_parser.add_argument("--interval", type=float, default=2.0,
                              metavar="SECONDS",
                              help="seconds between refreshes "
                              "(default: %(default)s)")

    serve_parser = sub.add_parser(
        "serve-metrics",
        help="Prometheus text exposition of a campaign's live status "
        "(stdlib HTTP server at /metrics, or --once to stdout)")
    serve_parser.add_argument("directory", metavar="CAMPAIGN_DIR",
                              help="campaign directory (sweep --campaign)")
    serve_parser.add_argument("--once", action="store_true",
                              help="print one exposition to stdout and "
                              "exit (the CI lint path)")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="HTTP port (default: ephemeral)")

    profile_parser = sub.add_parser(
        "profile",
        help="per-phase wall-time breakdown of the simulation kernel "
        "for one design point, per engine (repro.profile/v1; "
        "docs/OBSERVE.md)")
    _add_run_args(profile_parser)
    profile_parser.add_argument("--rate", type=float, default=0.1,
                                help="offered load in flits/node/cycle "
                                "(default: %(default)s)")
    profile_parser.add_argument("--engines", default=None,
                                metavar="NAMES",
                                help="comma-separated engines to profile "
                                "(default: --engine if given, else "
                                "'reference,fast')")
    profile_parser.add_argument("--output", default=None,
                                metavar="FILE.json",
                                help="write the per-engine "
                                "repro.profile/v1 reports as JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "designs": cmd_designs,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "trace": cmd_trace,
        "report": cmd_report,
        "model-check": cmd_model_check,
        "area": cmd_area,
        "watch": cmd_watch,
        "serve-metrics": cmd_serve_metrics,
        "profile": cmd_profile,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ReproError as exc:
        # Friendly one-line failure for interactive use; tests call main()
        # directly and still see the typed exception.
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
