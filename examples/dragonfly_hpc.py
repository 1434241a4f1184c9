#!/usr/bin/env python
"""Dragonfly (HPC-scale topology): UGAL with Dally VC ordering vs SPIN.

Reproduces the flavor of the paper's Fig. 6 in one script: on a dragonfly,
the standard deadlock-avoidance discipline forces a packet onto a specific
VC class after every global hop.  Under adversarial traffic that
serializes packets onto a fraction of the buffers.  SPIN lifts the
restriction (any packet may take any free VC) and FAvORS-NMin matches UGAL
with a *single* VC.

Uses a reduced dragonfly (p=2,a=4,h=2 -> 72 nodes) so it runs in seconds;
pass --full for the paper's 1056-node instance (slow in pure Python).

Run:
    python examples/dragonfly_hpc.py [--full]
"""

import sys

from repro.config import SimulationConfig
from repro.harness.runner import ExperimentSpec

SMALL = (2, 4, 2)
FULL = (4, 8, 4)  # the paper's "1024-node" dragonfly (1056 terminals)


def main():
    dragonfly = FULL if "--full" in sys.argv else SMALL
    p, a, h = dragonfly
    nodes = (a * h + 1) * a * p
    sim = SimulationConfig(warmup_cycles=400, measure_cycles=2000,
                           drain_cycles=2500)
    pattern = "tornado"   # adversarial: every group loads the same links
    rate = 0.08

    print(f"Dragonfly p={p} a={a} h={h}: {nodes} terminals")
    print(f"{pattern} traffic at {rate} flits/node/cycle\n")

    designs = [
        ("UGAL + Dally VC ordering (3 VC)", "dfly:ugal-dally-3vc"),
        ("UGAL + SPIN, any VC       (3 VC)", "dfly:ugal-spin-3vc"),
        ("Minimal + SPIN            (1 VC)", "dfly:minimal-spin-1vc"),
        ("FAvORS-NMin + SPIN        (1 VC)", "dfly:favors-nmin-spin-1vc"),
    ]

    header = (f"{'design':36s} {'mean lat':>9s} {'throughput':>11s} "
              f"{'delivered':>10s} {'spins':>6s}")
    print(header)
    print("-" * len(header))
    for label, name in designs:
        _, point = ExperimentSpec(design=name, pattern=pattern,
                                  injection_rate=rate, sim=sim,
                                  dragonfly=dragonfly, tdd=64).run()
        print(f"{label:36s} {point.mean_latency:9.1f} "
              f"{point.throughput:11.3f} {point.delivery_ratio:10.3f} "
              f"{point.events.get('spins', 0):6d}")

    print("\nTakeaways (paper Sec. VI-C):")
    print(" * lifting the VC-use restriction (row 2 vs row 1) buys "
          "throughput under adversarial traffic;")
    print(" * FAvORS-NMin routes around loaded minimal paths, beating "
          "pure minimal routing at the same single-VC cost;")
    print(" * the 1-VC router costs ~53% less area and ~55% less power "
          "than the 3-VC baseline (see benchmarks/test_fig10_area.py).")


if __name__ == "__main__":
    main()
