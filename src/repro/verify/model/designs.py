"""Checkable designs: abstract loop + matching concrete fabric.

A :class:`Design` ties one abstract model configuration (loop size,
detection threshold, per-action cycle costs, the theory's persistence
bound) to a concrete network builder that plants the *same* dependency
loop on a real fabric.  The construction is uniform: each loop router
holds one fully-arrived packet, received from its loop predecessor,
destined its loop **successor** — one hop away, so under minimal routing
the packet's unique productive port is the next loop edge, whose
downstream VC holds the next packet.  A textbook single-cycle buffer
deadlock (paper Fig. 2) whose control plane is exactly the abstract
model's single loop:

* ``mesh2x2`` / ``mesh2x3`` — the mesh perimeter traversed clockwise;
* ``ring3`` / ``ring4``     — a unidirectional ring (forward-only
  ``min_hops``, so the clockwise port is uniquely minimal).

The concrete builders feed the golden scenarios
(:mod:`repro.verify.golden`), the counterexample replay pipeline
(:mod:`repro.verify.model.scenario`) and the soundness cross-check
(tests/property/test_prop_model_soundness.py); the abstract side feeds
``cli model-check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.deadlock.waitgraph import spin_persistence_bound
from repro.verify.model.properties import ActionWeights
from repro.verify.model.transitions import ModelConfig

#: (router id resolver args, inport) pairs are built lazily so importing
#: this module never constructs networks.
LoopPlan = List[Tuple[int, int]]


@dataclass(frozen=True)
class Design:
    """One named, model-checkable fabric."""

    name: str
    description: str
    topology: str
    loop_size: int
    tdd: int
    link_latency: int = 1
    router_latency: int = 1

    # -- abstract side --------------------------------------------------
    def model_config(self, **overrides) -> ModelConfig:
        overrides.setdefault("loop_size", self.loop_size)
        return ModelConfig(**overrides)

    @property
    def hop_cost(self) -> int:
        """Worst-case cycles one SM hop costs on this fabric."""
        return self.link_latency + self.router_latency

    @property
    def loop_delay(self) -> int:
        """Worst-case SM round trip along the planted loop."""
        return self.loop_size * self.hop_cost

    @property
    def sm_rtt_bound(self) -> int:
        """``SpinFramework.sm_rtt_bound`` for this fabric: the loop's
        routers all sit on the planted loop, so ``num_routers ==
        loop_size`` and a probe path is capped at ``2 * loop_size``."""
        return 2 * self.loop_size * self.hop_cost

    def weights(self) -> ActionWeights:
        return ActionWeights(
            detect=self.tdd,
            deliver=self.hop_cost,
            watchdog=self.sm_rtt_bound,
            spin=2 * self.loop_delay,
        )

    def persistence_bound(self) -> int:
        return spin_persistence_bound(self.tdd, self.sm_rtt_bound)

    # -- concrete side --------------------------------------------------
    def spin_params(self):
        from repro.config import SpinParams

        return SpinParams(tdd=self.tdd)

    def build_network(self, seed: int = 3):
        """A fresh network with the design's loop deadlock planted: each
        packet comes from the previous loop router."""
        network = _BUILDERS[self.topology](self, seed)
        plan = self.loop_plan(network)
        for k, (router_id, inport, dst) in enumerate(plan):
            network.plant_packet(router_id, inport, dst,
                                 src_router=plan[k - 1][0])
        return network

    def loop_plan(self, network) -> List[Tuple[int, int, int]]:
        """``(router, inport, dst_router)`` triples in loop order."""
        plan = _PLANS[self.topology](network)
        return [(router, inport, plan[(k + 1) % len(plan)][0])
                for k, (router, inport) in enumerate(plan)]


# ----------------------------------------------------------------------
# Concrete builders
# ----------------------------------------------------------------------
def _ring_plan(network) -> LoopPlan:
    from repro.topology.ring import COUNTER_CLOCKWISE

    return [(rid, COUNTER_CLOCKWISE)
            for rid in range(network.topology.num_routers)]


def _mesh_perimeter_plan(network) -> LoopPlan:
    """The mesh perimeter clockwise; inport = side the previous loop
    router's packet arrived through."""
    from repro.topology.mesh import EAST, NORTH, SOUTH, WEST

    topology = network.topology
    cols, rows = topology.cols, topology.rows
    ring: List[Tuple[int, int]] = []           # (x, y) clockwise
    for x in range(cols):
        ring.append((x, 0))
    for y in range(1, rows):
        ring.append((cols - 1, y))
    for x in range(cols - 2, -1, -1):
        ring.append((x, rows - 1))
    for y in range(rows - 2, 0, -1):
        ring.append((0, y))
    plan: LoopPlan = []
    for k, (x, y) in enumerate(ring):
        px, py = ring[(k - 1) % len(ring)]
        if px < x:
            inport = WEST          # previous hop traveled east
        elif px > x:
            inport = EAST
        elif py < y:
            inport = NORTH         # previous hop traveled south (+y)
        else:
            inport = SOUTH
        plan.append((topology.router_at(x, y), inport))
    return plan


def _build_mesh(design: Design, seed: int):
    from repro.config import NetworkConfig
    from repro.network.network import Network
    from repro.routing.adaptive import MinimalAdaptiveRouting
    from repro.topology.mesh import MeshTopology

    cols, rows = {"mesh2x2": (2, 2), "mesh2x3": (2, 3)}[design.name]
    return Network(
        topology=MeshTopology(cols, rows,
                              link_latency=design.link_latency),
        config=NetworkConfig(vcs_per_vnet=1,
                             router_latency=design.router_latency),
        routing=MinimalAdaptiveRouting(seed),
        spin=design.spin_params(),
        seed=seed,
    )


def _build_ring(design: Design, seed: int):
    from repro.config import NetworkConfig
    from repro.network.network import Network
    from repro.routing.adaptive import MinimalAdaptiveRouting
    from repro.topology.ring import RingTopology

    return Network(
        topology=RingTopology(design.loop_size,
                              link_latency=design.link_latency,
                              bidirectional=False),
        config=NetworkConfig(vcs_per_vnet=1,
                             router_latency=design.router_latency),
        routing=MinimalAdaptiveRouting(seed),
        spin=design.spin_params(),
        seed=seed,
    )


_BUILDERS: Dict[str, Callable] = {
    "mesh": _build_mesh,
    "ring": _build_ring,
}
_PLANS: Dict[str, Callable] = {
    "mesh": _mesh_perimeter_plan,
    "ring": _ring_plan,
}


DESIGNS: Dict[str, Design] = {
    design.name: design
    for design in (
        Design(
            name="mesh2x2",
            description="2x2 mesh, 4-router perimeter loop (the smallest "
                        "mesh deadlock)",
            topology="mesh", loop_size=4, tdd=8,
        ),
        Design(
            name="mesh2x3",
            description="2x3 mesh, 6-router perimeter loop",
            topology="mesh", loop_size=6, tdd=8,
        ),
        Design(
            name="ring3",
            description="3-router unidirectional ring (the smallest "
                        "possible dependency cycle)",
            topology="ring", loop_size=3, tdd=8,
        ),
        Design(
            name="ring4",
            description="4-router unidirectional ring",
            topology="ring", loop_size=4, tdd=8,
        ),
    )
}
