"""The three implementations of the SPIN theory, pinned.

The distributed executor, the centralized plane and the proactive plane
differ only in when they call ``Network.rotate``.  This is the ablation
bench's implementation-modes setup (benchmarks/test_ablations.py: 4x4
mesh, 1 VC, uniform 0.3, seed 5) at 3000 cycles; each plane's deliveries,
flit hops, spin counters and probes must not move when the move or a
trigger is refactored.
"""

import pytest

from repro.config import NetworkConfig, SpinParams
from repro.core.centralized import CentralizedSpinPlane
from repro.core.proactive import ProactiveSpinPlane
from repro.network.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim.engine import Simulator
from repro.topology.mesh import MeshTopology
from repro.traffic.generator import PacketMix, SyntheticTraffic
from repro.traffic.patterns import make_pattern

CYCLES = 3000

PINNED = {
    "distributed": dict(delivered=5106, flit_hops=13685, spins=21,
                        spin_hops=130, probes_sent=413),
    "centralized": dict(delivered=6704, flit_hops=17898,
                        centralized_spins=23, spin_hops=146, probes_sent=0),
    "proactive": dict(delivered=4875, flit_hops=13442, proactive_drains=18,
                      proactive_packets_drained=384, spin_hops=384,
                      probes_sent=0),
}


def run_mode(mode):
    kwargs = {
        "distributed": dict(spin=SpinParams(tdd=32)),
        "centralized": dict(control_planes=(CentralizedSpinPlane(32),)),
        "proactive": dict(control_planes=(ProactiveSpinPlane(32, 8),)),
    }[mode]
    network = Network(MeshTopology(4, 4), NetworkConfig(vcs_per_vnet=1),
                      MinimalAdaptiveRouting(5), seed=5, **kwargs)
    network.stats.open_window(0, CYCLES // 2)
    traffic = SyntheticTraffic(
        network, make_pattern("uniform", 16), 0.3, seed=5,
        stop_at=CYCLES // 2, mix=PacketMix.single(1))
    simulator = Simulator()
    simulator.register(traffic)
    simulator.register(network)
    simulator.run(CYCLES)
    return network


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_mode_is_pinned(mode):
    network = run_mode(mode)
    events = network.stats.events
    got = {key: (network.stats.packets_delivered if key == "delivered"
                 else events.get(key, 0))
           for key in PINNED[mode]}
    assert got == PINNED[mode]
