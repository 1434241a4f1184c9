"""The simulation path never imports networkx.

networkx serves only the graph-level APIs (CDG analysis, irregular and
random-regular topologies, ``Topology.to_networkx``); loading it costs every
process ~14 MiB and ~0.2 s.  A fresh interpreter imports the package, its
CLI and the harness, runs every registered design on both engines, and must
still not have loaded it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_CHILD = """
import sys
import repro, repro.cli, repro.harness.runner, repro.harness.campaign
from repro.config import SimulationConfig
from repro.harness.configs import ALL_DESIGNS
from repro.harness.runner import ExperimentSpec

sim = SimulationConfig(warmup_cycles=20, measure_cycles=60,
                       drain_cycles=60, deadlock_abort_cycles=100)
for design in sorted(ALL_DESIGNS):
    for engine in ("reference", "fast"):
        ExperimentSpec(design=design, injection_rate=0.05, mesh_side=4,
                       dragonfly=(2, 4, 2), tdd=32, engine=engine,
                       sim=sim).run()
print("networkx" in sys.modules)
"""


def test_no_design_imports_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert done.stdout.strip() == "False"
