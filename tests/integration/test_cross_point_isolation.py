"""Points that share a fabric plan do not see each other.

``build_network`` hands every point of a process the same immutable
topology, and with it the same fabric plan and the same lazily filled hop
and productive-port rows.  Those rows are pure functions of the topology, so
which point fills them — and whether a point finds them cold or warm — must
not matter.  This is the test that says so: a mixed list of specs on shared
fabrics yields equal ``to_dict()`` per point when run forward from a cold
memo, reversed from a cold memo, again over warm tables, and one point per
fresh subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.config import NetworkConfig, SimulationConfig
from repro.harness.configs import shared_topology
from repro.harness.runner import ExperimentSpec
from repro.network.network import Network
from repro.routing.table import UpDownRouting
from repro.sim import create_engine
from repro.sim.rng import DeterministicRng
from repro.topology.irregular import faulty_mesh
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern

SRC = Path(__file__).resolve().parents[2] / "src"

SIM = SimulationConfig(warmup_cycles=40, measure_cycles=260,
                       drain_cycles=200, deadlock_abort_cycles=400)
STORM = SimulationConfig(warmup_cycles=40, measure_cycles=260,
                         drain_cycles=100, deadlock_abort_cycles=0)


def _specs():
    common = dict(mesh_side=4, dragonfly=(2, 4, 2), tdd=16, engine="fast")
    return [
        # SoA core, cold then warm candidate/productive rows.
        ExperimentSpec(design="mesh:minadaptive-spin-1vc",
                       injection_rate=0.08, seed=3, sim=SIM, **common),
        ExperimentSpec(design="mesh:westfirst-2vc", pattern="transpose",
                       injection_rate=0.10, seed=4, sim=SIM, **common),
        ExperimentSpec(design="mesh:staticbubble-2vc",
                       injection_rate=0.12, seed=5, sim=SIM, **common),
        ExperimentSpec(design="dfly:ugal-spin-3vc", injection_rate=0.08,
                       seed=6, sim=SIM, **common),
        # Past saturation: probes, spins, frozen VCs on the shared plan.
        ExperimentSpec(design="mesh:minadaptive-spin-1vc",
                       pattern="bit_complement", injection_rate=0.45,
                       seed=7, sim=STORM, **common),
        # Links go down mid-run: dead-link filtering over shared rows.
        ExperimentSpec(design="mesh:minadaptive-spin-2vc",
                       injection_rate=0.10, seed=8, sim=SIM,
                       faults="link_down@60:r5-r6,link_down@90:r9-r10",
                       fault_seed=2, **common),
        ExperimentSpec(design="mesh:minadaptive-spin-3vc",
                       injection_rate=0.06, seed=9, sim=SIM, **common),
    ]


def _run_here(specs):
    return [spec.run()[1].to_dict() for spec in specs]


_CHILD = """
import json, sys
from repro.harness.runner import ExperimentSpec
spec = ExperimentSpec.from_dict(json.loads(sys.argv[1]))
print(json.dumps(spec.run()[1].to_dict(), sort_keys=True))
"""


def _run_cold(spec):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(spec.to_dict())],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


class TestCrossPointIsolation:
    def test_order_and_warmth_do_not_matter(self):
        specs = _specs()
        shared_topology.cache_clear()
        forward = _run_here(specs)
        warm = _run_here(specs)
        shared_topology.cache_clear()
        backward = _run_here(specs[::-1])[::-1]
        assert warm == forward
        assert backward == forward
        # The list did exercise what it claims to.
        assert forward[4]["events"].get("spins", 0) > 0
        assert forward[5]["events"].get("link_down_events", 0) == 4
        assert forward[5]["events"].get("reroutes", 0) > 0
        # JSON round trip, as the subprocess results come back through it.
        as_json = json.loads(json.dumps(forward, sort_keys=True))
        assert [_run_cold(spec) for spec in specs] == as_json

    def test_updown_recomputes_around_failures_on_a_shared_topology(self):
        """Two networks on one irregular topology instance: the first loses
        channels at runtime (``UpDownRouting`` recomputes its own tables
        and strands/reroutes packets); the second, built afterwards on the
        same instance, behaves as on a private copy."""

        def run(topology, fail):
            network = Network(topology=topology,
                              config=NetworkConfig(vcs_per_vnet=1),
                              routing=UpDownRouting(seed=5), seed=5)
            pattern = make_pattern("uniform", topology.num_nodes, None)
            traffic = SyntheticTraffic(network, pattern, 0.10, seed=5,
                                       stop_at=300)
            simulator = create_engine("fast")
            simulator.register(traffic)
            simulator.register(network)
            simulator.run(80)
            if fail:
                links = list(topology.links())
                for spec in (links[0], links[len(links) // 2]):
                    network.set_channel_state(spec.src, spec.dst, False)
                assert network.stats.events["routing_recomputes"] >= 2
            simulator.run(520)
            stats = network.stats
            return (stats.packets_delivered, stats.packets_injected,
                    dict(stats.events), stats.mean_hops())

        def topology():
            return faulty_mesh(4, 4, num_failed_links=3,
                               rng=DeterministicRng(11))

        shared = topology()
        faulted = run(shared, fail=True)
        after = run(shared, fail=False)
        assert after == run(topology(), fail=False)
        assert faulted == run(topology(), fail=True)
        assert faulted != after
