"""Golden-trace scenarios and fixture regeneration.

Three pinned scenarios anchor the behavioural regression suite:

* ``mesh4_xy_spin``   — 4x4 mesh, XY (dimension-order) routing with the
  SPIN control plane at an aggressively low ``tDD``.  XY on a mesh is
  deadlock-free, so every detection is a congestion false positive — the
  trace pins the *full* SPIN machinery (counters, probes, priority) on a
  substrate whose correct behaviour is known.
* ``mesh4_square_deadlock`` — 4x4 mesh, minimal adaptive routing + SPIN,
  a planted 4-packet square deadlock (paper Fig. 2) and *no* traffic
  source: pins one complete detection→probe→move→spin recovery and is the
  reference scenario for telemetry span reconstruction
  (tests/integration/test_telemetry_spans.py, ``repro-sim trace
  --scenario``).
* ``torus4_bubble``   — 4x4 torus under bubble flow control (localized
  avoidance), pinning the wraparound datapath and the bubble condition.

Two model-checker fabrics (``model_ring3_spin``, ``model_mesh2x2_spin``)
and seven registry designs under load (``dfly_*``, ``mesh4_westfirst_2vc``,
``mesh4_escapevc_2vc``, ``mesh4_staticbubble_2vc``,
``mesh4_favors_nmin_spin_1vc``) are registered further down; the design
scenarios pin the routing overrides that only the object datapath runs.

``python -m repro.verify.golden [--out DIR]`` regenerates the fixture
files; tests/integration/test_golden_traces.py replays the scenarios and
fails with a first-divergence diff (:func:`repro.verify.trace
.divergence_report`) when behaviour drifts.  Regenerate *only* when a
change intentionally alters cycle-level behaviour, and say so in the
commit message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import NetworkConfig, SpinParams
from repro.network.network import Network
from repro.network.packet import Packet
from repro.sim import create_engine
from repro.topology.mesh import MeshTopology
from repro.topology.torus import TorusTopology
from repro.traffic.generator import SyntheticTraffic
from repro.traffic.patterns import make_pattern
from repro.verify.oracle import InvariantOracle, OracleConfig
from repro.verify.trace import TraceRecorder, fixture_payload, save_fixture


@dataclass(frozen=True)
class GoldenScenario:
    """One pinned, fully deterministic simulation."""

    name: str
    description: str
    cycles: int
    params: Dict[str, object]
    builder: Callable[[], Tuple[Network, object]]

    def record(self, with_oracle: bool = True, engine: Optional[str] = None
               ) -> Tuple[TraceRecorder, Optional[InvariantOracle]]:
        """Simulate the scenario under a fresh recorder (and oracle).

        The oracle runs in raise mode: a golden scenario that trips an
        invariant is a bug regardless of what the digests say.

        ``engine`` names the :class:`~repro.sim.SimulatorEngine` to drive
        the scenario with (None = the usual precedence).  Fixtures are
        engine-independent: every engine must reproduce them byte for byte,
        which the engine-parity tests assert by replaying each scenario
        under each engine against the same fixture.
        """
        network, traffic = self.builder()
        simulator = create_engine(engine)
        if traffic is not None:
            simulator.register(traffic)
        simulator.register(network)
        oracle = None
        if with_oracle:
            oracle = InvariantOracle(network, OracleConfig(mode="raise"))
            oracle.attach(simulator)
        recorder = TraceRecorder(network)
        simulator.register_observer(recorder)
        simulator.run(self.cycles)
        return recorder, oracle


def _traffic(network: Network, rate: float, seed: int, cycles: int,
             cols: int):
    pattern = make_pattern("uniform", network.topology.num_nodes, cols)
    return SyntheticTraffic(network, pattern, rate, seed=seed,
                            stop_at=cycles)


def _build_mesh4_xy_spin() -> Tuple[Network, object]:
    from repro.routing.dor import DimensionOrderRouting

    params = SCENARIOS["mesh4_xy_spin"].params
    network = Network(
        topology=MeshTopology(4, 4),
        config=NetworkConfig(vcs_per_vnet=1),
        routing=DimensionOrderRouting(params["seed"]),
        spin=SpinParams(tdd=params["tdd"]),
        seed=params["seed"],
    )
    traffic = _traffic(network, params["rate"], params["seed"],
                       params["traffic_cycles"], cols=4)
    return network, traffic


def _build_torus4_bubble() -> Tuple[Network, object]:
    from repro.deadlock.bubble import BubbleFlowControlRouting

    params = SCENARIOS["torus4_bubble"].params
    network = Network(
        topology=TorusTopology(4, 4),
        config=NetworkConfig(vcs_per_vnet=1),
        routing=BubbleFlowControlRouting(params["seed"]),
        spin=None,
        seed=params["seed"],
    )
    traffic = _traffic(network, params["rate"], params["seed"],
                       params["traffic_cycles"], cols=4)
    return network, traffic


def plant_square_deadlock(network: Network) -> List[Packet]:
    """Plant paper Fig. 2's 4-packet clockwise deadlock on the (1,1)-(2,2)
    square of a >= 4x4 mesh with 1 VC per vnet; returns the packets.

    Each packet's destination lies two hops straight ahead, so under
    minimal routing its unique productive port is the next clockwise edge
    of the square — a textbook cyclic buffer dependency.
    """
    from repro.topology.mesh import EAST, NORTH, SOUTH, WEST

    at = network.topology.router_at
    plan = [
        # (router, inport holding the packet, destination 2 hops ahead)
        (at(1, 1), SOUTH, at(3, 1)),   # wants EAST
        (at(2, 1), WEST, at(2, 3)),    # wants SOUTH
        (at(2, 2), NORTH, at(0, 2)),   # wants WEST
        (at(1, 2), EAST, at(1, 0)),    # wants NORTH
    ]
    return [network.plant_packet(router, inport, dst)
            for router, inport, dst in plan]


def _build_mesh4_square_deadlock() -> Tuple[Network, object]:
    from repro.routing.adaptive import MinimalAdaptiveRouting

    params = SCENARIOS["mesh4_square_deadlock"].params
    network = Network(
        topology=MeshTopology(4, 4),
        config=NetworkConfig(vcs_per_vnet=1),
        routing=MinimalAdaptiveRouting(params["seed"]),
        spin=SpinParams(tdd=params["tdd"]),
        seed=params["seed"],
    )
    plant_square_deadlock(network)
    return network, None


SCENARIOS: Dict[str, GoldenScenario] = {}


def _register(name: str, description: str, cycles: int,
              params: Dict[str, object], builder) -> None:
    SCENARIOS[name] = GoldenScenario(
        name=name, description=description, cycles=cycles,
        params=dict(params, cycles=cycles), builder=builder)


_register(
    "mesh4_xy_spin",
    "4x4 mesh, XY routing + SPIN (tdd=12) overdriven past saturation: "
    "pins detection/probe machinery on a deadlock-free substrate",
    cycles=600,
    params={"topology": "mesh4x4", "routing": "xy", "tdd": 12,
            "rate": 0.80, "seed": 7, "traffic_cycles": 500},
    builder=_build_mesh4_xy_spin,
)
_register(
    "mesh4_square_deadlock",
    "4x4 mesh, minimal adaptive routing + SPIN (tdd=8), a planted 4-packet "
    "square deadlock and no traffic source: pins one complete "
    "detection->probe->move->spin recovery, the telemetry span fixture",
    cycles=300,
    params={"topology": "mesh4x4", "routing": "minadaptive", "tdd": 8,
            "rate": 0.0, "seed": 5, "traffic_cycles": 0},
    builder=_build_mesh4_square_deadlock,
)
_register(
    "torus4_bubble",
    "4x4 torus under bubble flow control: pins the wraparound datapath "
    "and the bubble condition",
    cycles=600,
    params={"topology": "torus4x4", "routing": "bubble-dor",
            "rate": 0.30, "seed": 11, "traffic_cycles": 500},
    builder=_build_torus4_bubble,
)


def _build_model_design(name: str) -> Callable[[], Tuple[Network, object]]:
    """Builder for a model-checker design's planted-loop fabric.

    The fabrics come from :mod:`repro.verify.model.designs` — the same
    constructions ``cli model-check`` verifies exhaustively in the
    abstract — so these fixtures pin the cycle-level behaviour of runs
    the checker has proved deadlock-free and bounded.
    """

    def build() -> Tuple[Network, object]:
        from repro.verify.model.designs import DESIGNS

        seed = SCENARIOS[f"model_{name}_spin"].params["seed"]
        return DESIGNS[name].build_network(seed=seed), None

    return build


_register(
    "model_ring3_spin",
    "3-router unidirectional ring with the model checker's planted loop "
    "deadlock: the smallest fabric whose full SPIN control plane is "
    "exhaustively verified (repro.verify.model), pinned concretely",
    cycles=200,
    params={"topology": "ring3-uni", "routing": "minadaptive", "tdd": 8,
            "rate": 0.0, "seed": 3, "traffic_cycles": 0,
            "model_design": "ring3"},
    builder=_build_model_design("ring3"),
)
_register(
    "model_mesh2x2_spin",
    "2x2 mesh with the model checker's planted perimeter-loop deadlock: "
    "the smallest mesh deadlock, exhaustively verified in the abstract "
    "(repro.verify.model) and pinned concretely here",
    cycles=200,
    params={"topology": "mesh2x2", "routing": "minadaptive", "tdd": 8,
            "rate": 0.0, "seed": 3, "traffic_cycles": 0,
            "model_design": "mesh2x2"},
    builder=_build_model_design("mesh2x2"),
)


def _build_design(name: str) -> Callable[[], Tuple[Network, object]]:
    """Builder for a registry design (:mod:`repro.harness.configs`) under
    synthetic traffic — the Table-III designs outside the fast engine's
    SoA envelope, which always run the object datapath."""

    def build() -> Tuple[Network, object]:
        from repro.harness.configs import build_network

        params = SCENARIOS[name].params
        network = build_network(
            params["design"], seed=params["seed"],
            mesh_side=params["mesh_side"],
            dragonfly=tuple(params["dragonfly"]), tdd=params["tdd"])
        pattern = make_pattern(params["pattern"],
                               network.topology.num_nodes,
                               params["mesh_side"])
        traffic = SyntheticTraffic(network, pattern, params["rate"],
                                   seed=params["seed"],
                                   stop_at=params["traffic_cycles"])
        return network, traffic

    return build


def _register_design(name: str, design: str, what: str, pattern: str,
                     rate: float, seed: int, tdd: int = 16,
                     cycles: int = 300, traffic_cycles: int = 220) -> None:
    _register(
        name,
        f"{design} under {pattern} traffic at {rate} flits/node/cycle: "
        f"pins {what} on the object datapath",
        cycles=cycles,
        params={"design": design, "pattern": pattern, "rate": rate,
                "seed": seed, "tdd": tdd, "traffic_cycles": traffic_cycles,
                "mesh_side": 4, "dragonfly": [2, 4, 2]},
        builder=_build_design(name),
    )


_register_design(
    "dfly_ugal_spin_3vc", "dfly:ugal-spin-3vc",
    "UGAL's source decision with unrestricted VC use under SPIN",
    pattern="uniform", rate=0.45, seed=21)
_register_design(
    "dfly_ugal_dally_3vc", "dfly:ugal-dally-3vc",
    "UGAL with the Dally VC-class discipline",
    pattern="uniform", rate=0.45, seed=22)
_register_design(
    "dfly_minimal_spin_1vc", "dfly:minimal-spin-1vc",
    "1-VC minimal dragonfly routing with SPIN recoveries",
    pattern="uniform", rate=0.15, seed=23)
_register_design(
    "mesh4_westfirst_2vc", "mesh:westfirst-2vc",
    "the west-first turn model's partial adaptivity",
    pattern="uniform", rate=0.60, seed=24)
_register_design(
    "mesh4_escapevc_2vc", "mesh:escapevc-2vc",
    "Duato escape-VC selection and its escape fallback",
    pattern="uniform", rate=0.60, seed=25)
_register_design(
    "mesh4_staticbubble_2vc", "mesh:staticbubble-2vc",
    "Static Bubble's reserved VC and timeout recoveries",
    pattern="uniform", rate=0.50, seed=26)
_register_design(
    "mesh4_favors_nmin_spin_1vc", "mesh:favors-nmin-spin-1vc",
    "FAvORS non-minimal source detours with SPIN recoveries",
    pattern="uniform", rate=0.45, seed=27)


def regenerate(out_dir, names=None) -> Dict[str, str]:
    """Write fixture files for the named (default: all) scenarios.

    Returns ``{scenario: digest}`` of everything written.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    digests: Dict[str, str] = {}
    for name in names or sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        recorder, _ = scenario.record(with_oracle=True)
        payload = fixture_payload(name, scenario.params, recorder)
        save_fixture(os.path.join(out_dir, f"{name}.json"), payload)
        digests[name] = payload["digest"]
    return digests


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Regenerate golden-trace fixtures (docs/VERIFY.md)")
    parser.add_argument("--out", default="tests/fixtures/golden",
                        help="fixture directory (default: %(default)s)")
    parser.add_argument("scenarios", nargs="*",
                        help="scenario names (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.scenarios) - set(SCENARIOS)
    if unknown:
        parser.error(f"unknown scenario(s) {sorted(unknown)}; "
                     f"known: {sorted(SCENARIOS)}")
    for name, digest in regenerate(args.out, args.scenarios or None).items():
        print(f"{name}: {digest}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
