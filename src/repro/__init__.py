"""repro — a full reproduction of SPIN (ISCA 2018).

SPIN (Synchronized Progress in Interconnection Networks) is a deadlock-
freedom framework that treats routing deadlocks as a coordination problem:
all packets of a deadlocked ring move one hop *simultaneously* ("a spin"),
which needs no free buffer anywhere and provably resolves the deadlock in a
bounded number of spins.  This package implements the theory, the paper's
distributed microarchitecture, the FAvORS one-VC fully adaptive routing
algorithm, the baselines it is compared against, and a cycle-accurate
network substrate to run them on.

Quickstart::

    from repro import quick_mesh_simulation

    result = quick_mesh_simulation(injection_rate=0.2)
    print(result.mean_latency, result.events.get("spins", 0))

See README.md for the full tour and DESIGN.md for the architecture.
"""

from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.network.network import Network
from repro.sim.engine import Simulator
from repro.stats.results import load_results, save_results
from repro.stats.sweep import SweepPoint, simulate_point

__version__ = "1.1.0"

__all__ = [
    "NetworkConfig",
    "SimulationConfig",
    "SpinParams",
    "Network",
    "Simulator",
    "SweepPoint",
    "simulate_point",
    "save_results",
    "load_results",
    "ExperimentSpec",
    "quick_mesh_simulation",
]


def __getattr__(name):
    # Lazy: repro.harness pulls in topology/routing modules; keep
    # `import repro` light while still exposing the headline API.
    if name == "ExperimentSpec":
        import repro.harness as harness

        return harness.ExperimentSpec
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def quick_mesh_simulation(injection_rate: float = 0.1, side: int = 4,
                          vcs: int = 1, pattern: str = "uniform",
                          seed: int = 1,
                          sim_config: SimulationConfig = None) -> SweepPoint:
    """One-call demo: a small mesh with FAvORS-Min + SPIN.

    Args:
        injection_rate: Offered load in flits/node/cycle.
        side: Mesh dimension.
        vcs: VCs per port.
        pattern: Traffic pattern name (see repro.traffic.patterns).
        seed: RNG seed.
        sim_config: Simulation windows (defaults to a short run).

    Returns:
        The resulting :class:`SweepPoint`.
    """
    from repro.routing.favors import FavorsMinimal
    from repro.topology.mesh import MeshTopology
    from repro.traffic.generator import SyntheticTraffic
    from repro.traffic.patterns import make_pattern

    sim_config = sim_config or SimulationConfig(
        warmup_cycles=500, measure_cycles=2000, drain_cycles=1500)

    network = Network(
        topology=MeshTopology(side, side),
        config=NetworkConfig(vcs_per_vnet=vcs),
        routing=FavorsMinimal(seed),
        spin=SpinParams(tdd=32),
        seed=seed,
    )
    traffic = SyntheticTraffic(
        network, make_pattern(pattern, side * side, cols=side),
        injection_rate, seed=seed,
        stop_at=sim_config.warmup_cycles + sim_config.measure_cycles)
    return simulate_point(network, traffic, sim_config,
                          injection_rate=injection_rate)
