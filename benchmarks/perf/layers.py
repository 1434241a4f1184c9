"""Per-layer metrics, derived from the traced pass's per-point rows.

Layers are the repo's packages.  gate.json says which end-to-end metric
each one should move, and on which workloads; a metric a workload does not
exercise is not reported for it: ``harness.*`` on the simulation
workloads, for example, or a ratio here whose denominator is 0
(``core.probe_useful_ratio`` where no probe was sent).
"""

from __future__ import annotations

from typing import Dict, List, Optional

PHASES = ("deliver", "control", "inject", "allocate", "collect")


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def sim_layers(rows: List[Dict[str, object]],
               wall_s: float) -> Dict[str, float]:
    """Metrics of the simulation layers, summed over one pass's points.

    ``wall_s`` is the wall of the pass the points ran in.
    """
    def total(key: str) -> float:
        return sum(row[key] for row in rows)

    def event(name: str) -> int:
        return sum(row["events"].get(name, 0) for row in rows)

    def counter(name: str) -> int:
        return sum(row["counters"].get(name, 0) for row in rows)

    def phase(name: str, subset=rows) -> float:
        return sum(row["phase_s"].get(name, 0.0) for row in subset)

    # A fast-engine point whose profiler counters stayed empty ran the
    # reference schedule: every router and controller runs every cycle.
    fallback = [row for row in rows if not row["counters"]]
    fallback_router_cycles = sum(
        row["cycles"] * row["routers"] for row in fallback)
    router_cycles = counter("router_cycles_run") + fallback_router_cycles
    controller_ticks = counter("controller_ticks") + sum(
        row["cycles"] * row["controllers"] for row in fallback)
    bubble = [row for row in rows if "staticbubble" in row["design"]]

    phase_total = sum(phase(name) for name in PHASES)
    cycles = total("cycles")
    count = len(rows)
    loop_overhead = total("sim_s") - phase_total
    skipped = counter("router_cycles_skipped")
    spins, aborted = event("spins"), event("spins_aborted")
    flit_hops = event("flit_hops")

    metrics = {}
    for name in PHASES:
        metrics[f"sim.phase_s.{name}"] = phase(name)
        metrics[f"sim.phase_share.{name}"] = _ratio(phase(name), phase_total)
    metrics.update({
        "sim.engine_share_of_wall": phase_total / wall_s,
        "sim.loop_overhead_s": loop_overhead,
        "sim.router_cycles_run": counter("router_cycles_run"),
        "sim.router_cycles_skipped": skipped,
        "sim.skip_ratio": _ratio(
            skipped, skipped + counter("router_cycles_run")),
        "sim.controller_ticks": counter("controller_ticks"),
        "sim.controller_ticks_skipped": counter("controller_ticks_skipped"),
        "sim.cycles_fast_forwarded": counter("cycles_fast_forwarded"),
        "sim.alloc_cycles_run": counter("alloc_cycles_run"),
        "sim.soa_points": count - len(fallback),
        "sim.fallback_points": len(fallback),
        "network.flit_hops": flit_hops,
        "network.allocate_us_per_router_cycle": _ratio(
            1e6 * phase("allocate"), router_cycles),
        "network.allocate_us_per_flit_hop": _ratio(
            1e6 * phase("allocate"), flit_hops),
        "network.inject_us_per_packet": _ratio(
            1e6 * phase("inject"), total("injected")),
        "network.link_utilization": _ratio(total("link_utilization"), count),
        "routing.rng_draws_per_cycle": _ratio(total("rng_draws"), cycles),
        "routing.fallback_design_us_per_router_cycle": _ratio(
            1e6 * phase("allocate", fallback), fallback_router_cycles),
        "core.control_s": phase("control"),
        "core.us_per_controller_tick": _ratio(
            1e6 * phase("control"), controller_ticks),
        "core.probes_sent": event("probes_sent"),
        "core.probe_useful_ratio": _ratio(
            event("probes_returned"), event("probes_sent")),
        "core.spins": spins,
        "core.spin_abort_ratio": _ratio(aborted, spins + aborted),
        "core.sm_retries": event("sm_retries"),
        "core.watchdog_fires": event("watchdog_fires"),
        "deadlock.waitgraph_ms": _ratio(1e3 * total("waitgraph_s"), count),
        "deadlock.static_bubble_control_share": _ratio(
            phase("control", bubble),
            sum(phase(name, bubble) for name in PHASES)),
        "topology.build_ms": _ratio(1e3 * total("topology_s"), count),
        "harness.spec_build_ms": _ratio(1e3 * total("build_s"), count),
        "stats.point_overhead_ms": _ratio(1e3 * loop_overhead, count),
    })
    return {name: value for name, value in metrics.items()
            if value is not None}
