"""Named design configurations (paper Table III).

Each :class:`DesignConfig` bundles a topology, routing algorithm, VC count
and control planes into a reproducible factory.  The registry names follow
``<topology>:<design>-<vcs>vc`` and cover every design point of the paper's
evaluation plus the no-recovery variants used by Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from repro.config import NetworkConfig, SpinParams
from repro.deadlock.static_bubble import (
    StaticBubbleControlPlane,
    StaticBubbleRouting,
)
from repro.errors import ConfigurationError
from repro.network.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.routing.escape import EscapeVcRouting
from repro.routing.favors import FavorsMinimal, FavorsNonMinimal
from repro.routing.turn_model import WestFirstRouting
from repro.routing.ugal import MinimalDragonflyRouting, UgalRouting
from repro.topology.base import Topology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.mesh import MeshTopology

#: Default mesh side (the paper's 8x8).
MESH_SIDE = 8
#: Default dragonfly parameters.  The paper's "1024-node" dragonfly is the
#: balanced p=4, a=8, h=4 (33 groups, 1056 terminals); benchmarks default to
#: a reduced instance for pure-Python tractability (DESIGN.md note 4) and
#: accept these parameters explicitly for full-size runs.
DRAGONFLY_FULL = (4, 8, 4)
DRAGONFLY_SMALL = (2, 4, 2)


@dataclass(frozen=True)
class DesignConfig:
    """A reproducible network design point.

    Attributes:
        name: Registry key.
        topology: "mesh" or "dragonfly".
        routing_factory: ``seed -> RoutingAlgorithm``.
        vcs_per_vnet: VCs per message class.
        spin: Whether the SPIN control plane is attached.
        control_plane_factories: Extra control planes (e.g. Static Bubble).
        theory: Deadlock-freedom theory (Table III column).
        scheme: "avoidance" or "recovery" (or "none" for Fig. 3 variants).
        adaptive: Routing adaptivity label.
        tdd: Detection threshold when SPIN (or a timeout plane) is present.
    """

    name: str
    topology: str
    routing_factory: Callable[[int], object]
    vcs_per_vnet: int
    spin: bool
    theory: str
    scheme: str
    adaptive: str
    control_plane_factories: Tuple[Callable[[int], object], ...] = ()
    tdd: int = 128


def _mesh_designs() -> Dict[str, DesignConfig]:
    designs = {}

    def add(name, routing_factory, vcs, spin, theory, scheme, adaptive,
            planes=()):
        designs[name] = DesignConfig(
            name=name, topology="mesh", routing_factory=routing_factory,
            vcs_per_vnet=vcs, spin=spin, theory=theory, scheme=scheme,
            adaptive=adaptive, control_plane_factories=planes)

    for vcs in (1, 2, 3):
        add(f"mesh:westfirst-{vcs}vc", lambda seed: WestFirstRouting(seed),
            vcs, False, "Dally", "avoidance", "partial")
    for vcs in (2, 3):
        add(f"mesh:escapevc-{vcs}vc", lambda seed: EscapeVcRouting(seed),
            vcs, False, "Duato", "avoidance", "full")
        add(f"mesh:staticbubble-{vcs}vc",
            lambda seed: StaticBubbleRouting(seed),
            vcs, False, "FlowCtrl", "recovery", "full",
            planes=(lambda tdd: StaticBubbleControlPlane(tdd),))
        add(f"mesh:minadaptive-spin-{vcs}vc",
            lambda seed: MinimalAdaptiveRouting(seed),
            vcs, True, "SPIN", "recovery", "full")
    add("mesh:favors-min-spin-1vc", lambda seed: FavorsMinimal(seed),
        1, True, "SPIN", "recovery", "full")
    add("mesh:favors-nmin-spin-1vc", lambda seed: FavorsNonMinimal(seed),
        1, True, "SPIN", "recovery", "full")
    add("mesh:minadaptive-spin-1vc", lambda seed: MinimalAdaptiveRouting(seed),
        1, True, "SPIN", "recovery", "full")
    # No-recovery variants: used by Fig. 3 (deadlock occurrence) and the
    # "deadlocks really wedge the network" demonstrations.
    for vcs in (1, 3):
        add(f"mesh:minadaptive-nospin-{vcs}vc",
            lambda seed: MinimalAdaptiveRouting(seed),
            vcs, False, "none", "none", "full")
    return designs


def _dragonfly_designs() -> Dict[str, DesignConfig]:
    designs = {}

    def add(name, routing_factory, vcs, spin, theory, scheme, adaptive):
        designs[name] = DesignConfig(
            name=name, topology="dragonfly", routing_factory=routing_factory,
            vcs_per_vnet=vcs, spin=spin, theory=theory, scheme=scheme,
            adaptive=adaptive)

    add("dfly:ugal-dally-3vc",
        lambda seed: UgalRouting(seed, vc_discipline=True),
        3, False, "Dally", "avoidance", "full")
    add("dfly:ugal-spin-3vc",
        lambda seed: UgalRouting(seed, vc_discipline=False),
        3, True, "SPIN", "recovery", "full")
    add("dfly:minimal-spin-1vc",
        lambda seed: MinimalDragonflyRouting(seed),
        1, True, "SPIN", "recovery", "none")
    add("dfly:favors-nmin-spin-1vc",
        lambda seed: FavorsNonMinimal(seed),
        1, True, "SPIN", "recovery", "full")
    add("dfly:minimal-spin-3vc",
        lambda seed: MinimalDragonflyRouting(seed),
        3, True, "SPIN", "recovery", "none")
    # Fig. 3 variant: unrestricted UGAL without recovery.
    add("dfly:ugal-nospin-3vc",
        lambda seed: UgalRouting(seed, vc_discipline=False),
        3, False, "none", "none", "full")
    add("dfly:minimal-nospin-1vc",
        lambda seed: MinimalDragonflyRouting(seed),
        1, False, "none", "none", "none")
    return designs


MESH_DESIGNS: Dict[str, DesignConfig] = _mesh_designs()
DRAGONFLY_DESIGNS: Dict[str, DesignConfig] = _dragonfly_designs()
ALL_DESIGNS: Dict[str, DesignConfig] = {**MESH_DESIGNS, **DRAGONFLY_DESIGNS}

#: Convenience aliases for the headline design points (shorthand accepted
#: anywhere a registry name is: CLI ``--design``, :func:`get_design`).
DESIGN_ALIASES: Dict[str, str] = {
    "spin_mesh": "mesh:minadaptive-spin-1vc",
    "spin_dragonfly": "dfly:minimal-spin-1vc",
}


def resolve_design_name(name: str) -> str:
    """Canonical registry name for a design (aliases resolved).

    Raises :class:`~repro.errors.ConfigurationError` for unknown names, so
    a declarative :class:`~repro.harness.runner.ExperimentSpec` fails at
    construction — before any worker process is spawned — and serialized
    specs/results always carry the canonical name rather than an alias.
    """
    resolved = DESIGN_ALIASES.get(name, name)
    if resolved not in ALL_DESIGNS:
        raise ConfigurationError(
            f"unknown design {name!r}; known: {sorted(ALL_DESIGNS)} "
            f"(aliases: {sorted(DESIGN_ALIASES)})")
    return resolved


def get_design(name: str) -> DesignConfig:
    """Look up a design by registry name (aliases accepted)."""
    return ALL_DESIGNS[resolve_design_name(name)]


@lru_cache(maxsize=8)
def shared_topology(cls, *args) -> Topology:
    """The process-wide ``cls(*args)`` topology.

    A topology is immutable and carries everything compiled from it (its
    validation, hop and productive-port rows, fabric plans), so every point
    of a curve or campaign on one fabric shares one instance instead of
    re-deriving all of that.  The memo is a fixed small LRU: the paper's
    evaluation uses two fabric shapes, and an evicted topology is simply
    compiled again.
    """
    return cls(*args)


def build_network(design, seed: int = 1, mesh_side: int = MESH_SIDE,
                  dragonfly: Tuple[int, int, int] = DRAGONFLY_SMALL,
                  num_vnets: int = 1, tdd: Optional[int] = None,
                  spin_params: Optional[SpinParams] = None) -> Network:
    """Instantiate a network for a design point.

    The network's objects (routers, VCs, links, NICs, control planes, RNGs,
    statistics) are fresh; its :class:`~repro.topology.base.Topology` is the
    shared, immutable :func:`shared_topology` instance of that shape.
    Construct a topology and a :class:`~repro.network.network.Network`
    directly to get a private one.

    Args:
        design: A :class:`DesignConfig` or registry name.
        seed: Seed shared by network and routing RNGs.
        mesh_side: Mesh dimension (paper: 8).
        dragonfly: (p, a, h) parameters (paper: (4, 8, 4)).
        num_vnets: Message classes (1 for synthetic, 3 for PARSEC proxy).
        tdd: Detection threshold override.
        spin_params: Full SPIN parameter override (implies design.spin).
    """
    if isinstance(design, str):
        design = get_design(design)
    if design.topology == "mesh":
        topology = shared_topology(MeshTopology, mesh_side, mesh_side)
    elif design.topology == "dragonfly":
        topology = shared_topology(DragonflyTopology, *dragonfly)
    else:
        raise ConfigurationError(f"unknown topology {design.topology!r}")
    config = NetworkConfig(vcs_per_vnet=design.vcs_per_vnet,
                           num_vnets=num_vnets)
    effective_tdd = tdd if tdd is not None else design.tdd
    spin = spin_params
    if spin is None and design.spin:
        spin = SpinParams(tdd=effective_tdd)
    planes = tuple(factory(effective_tdd)
                   for factory in design.control_plane_factories)
    return Network(
        topology=topology,
        config=config,
        routing=design.routing_factory(seed),
        spin=spin,
        control_planes=planes,
        seed=seed,
    )
