#!/usr/bin/env python
"""Quickstart: a 1-VC mesh with fully adaptive routing, kept deadlock-free
by SPIN.

This is the paper's headline capability in ~40 lines: *truly one-VC fully
adaptive routing* — impossible under Dally's or Duato's theories — running
at a load where deadlocks demonstrably occur, with SPIN detecting and
resolving each one by synchronized packet rotation.

Run:
    python examples/quickstart.py
"""

from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.network.network import Network
from repro.routing.favors import FavorsMinimal
from repro.stats.sweep import simulate_point
from repro.topology.mesh import MeshTopology
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern


def build_network():
    """An 8x8 mesh, one VC per port, FAvORS-Min routing, SPIN recovery."""
    return Network(
        topology=MeshTopology(8, 8),
        config=NetworkConfig(vcs_per_vnet=1),
        routing=FavorsMinimal(seed=1),
        spin=SpinParams(tdd=64),
        seed=1,
    )


RATE = 0.12  # the saturation edge of this 1-VC substrate


def build_traffic(network, rate, stop_at):
    """Uniform random traffic at a deadlock-prone load (1/5-flit mix)."""
    pattern = make_pattern("uniform", network.topology.num_nodes)
    return SyntheticTraffic(network, pattern, injection_rate=rate,
                            seed=1, stop_at=stop_at)


def main():
    sim_config = SimulationConfig(warmup_cycles=500, measure_cycles=3000,
                                  drain_cycles=4000)
    print("Simulating an 8x8 mesh: 1 VC, fully adaptive FAvORS-Min + SPIN")
    print(f"  offered load {RATE} flits/node/cycle, "
          f"{sim_config.total_cycles} cycles total ...")
    network = build_network()
    traffic = build_traffic(network, RATE, sim_config.warmup_cycles
                            + sim_config.measure_cycles)
    point = simulate_point(network, traffic, sim_config, injection_rate=RATE)

    events = point.events
    print("\nResults")
    print(f"  mean packet latency : {point.mean_latency:8.1f} cycles")
    print(f"  p99 packet latency  : {point.p99_latency:8.1f} cycles")
    print(f"  received throughput : {point.throughput:8.3f} flits/node/cycle")
    print(f"  delivery ratio      : {point.delivery_ratio:8.3f}")
    print("\nSPIN activity")
    print(f"  probes sent         : {events.get('probes_sent', 0):6d}")
    print(f"  probes returned     : {events.get('probes_returned', 0):6d}")
    print(f"  moves completed     : {events.get('moves_returned', 0):6d}")
    print(f"  spins performed     : {events.get('spins', 0):6d}")
    print(f"  VC-hops spun        : {events.get('spin_hops', 0):6d}")
    if events.get("spins", 0):
        print("\nEvery spin resolved a cyclic buffer dependency that would "
              "have wedged this 1-VC network forever — and note how few "
              "were needed: deadlocks are rare events even at saturation "
              "(the premise of recovery-based deadlock freedom, paper "
              "Sec. II-F).")


if __name__ == "__main__":
    main()
