"""Shared test fixtures and deadlock-crafting helpers."""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.config import NetworkConfig, SimulationConfig, SpinParams
from repro.network.network import Network
from repro.network.packet import Packet
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.sim.engine import Simulator
from repro.topology.mesh import MeshTopology
from repro.topology.ring import COUNTER_CLOCKWISE, RingTopology
from repro.verify.golden import plant_square_deadlock as craft_square_deadlock


def make_mesh_network(side: int = 4, vcs: int = 1, routing=None,
                      spin: Optional[SpinParams] = None, seed: int = 1,
                      num_vnets: int = 1) -> Network:
    """A small mesh network with minimal adaptive routing by default."""
    return Network(
        topology=MeshTopology(side, side),
        config=NetworkConfig(vcs_per_vnet=vcs, num_vnets=num_vnets),
        routing=routing or MinimalAdaptiveRouting(seed),
        spin=spin,
        seed=seed,
    )


def make_ring_network(m: int = 6, vcs: int = 1,
                      spin: Optional[SpinParams] = None,
                      seed: int = 1) -> Network:
    """A bidirectional ring network with minimal adaptive routing."""
    return Network(
        topology=RingTopology(m),
        config=NetworkConfig(vcs_per_vnet=vcs),
        routing=MinimalAdaptiveRouting(seed),
        spin=spin,
        seed=seed,
    )


def craft_ring_deadlock(network: Network, dst_ahead: int = 2,
                        length: int = 1) -> List[Packet]:
    """Plant a clockwise deadlocked ring on a RingTopology network.

    Puts one packet in the counter-clockwise input VC of every router,
    destined ``dst_ahead`` routers clockwise, so each packet's only minimal
    request is the clockwise port — whose downstream VC holds the next
    packet.  With a single VC this is a textbook cyclic buffer dependency.

    Args:
        network: A network over :class:`RingTopology` with 1 VC per vnet.
        dst_ahead: Clockwise distance to each packet's destination; must be
            at least 2 and at most floor(m/2) so the clockwise direction is
            the unique minimal path.
        length: Packet length in flits.

    Returns:
        The planted packets, in ring order.
    """
    m = network.topology.num_routers
    assert 2 <= dst_ahead <= m // 2, "clockwise must be uniquely minimal"
    return [
        network.plant_packet(router_id, COUNTER_CLOCKWISE,
                             (router_id + dst_ahead) % m, length=length,
                             src_router=(router_id - 1) % m)
        for router_id in range(m)
    ]


def craft_figure8_deadlock(network: Network) -> List[Packet]:
    """Plant a single figure-8 dependency chain crossing router (1,1).

    Two 4-router loops share router (1,1); the chain enters it twice via
    different inports (paper Fig. 5(b)).  Requires a >= 4x4 mesh, 1 VC.
    """
    from repro.topology.mesh import EAST, NORTH, SOUTH, WEST

    mesh: MeshTopology = network.topology
    at = mesh.router_at
    spec = [
        # Lower-right loop, feeding into the upper-left loop at (1,1).
        (at(1, 1), SOUTH, at(1, 0)),   # crossover entry 1: wants NORTH
        (at(1, 0), SOUTH, at(0, 0)),   # wants WEST
        (at(0, 0), EAST, at(0, 2)),    # wants SOUTH
        (at(0, 1), NORTH, at(2, 1)),   # wants EAST -> back into (1,1)
        (at(1, 1), WEST, at(3, 1)),    # crossover entry 2: wants EAST
        (at(2, 1), WEST, at(2, 3)),    # wants SOUTH
        (at(2, 2), NORTH, at(0, 2)),   # wants WEST
        (at(1, 2), EAST, at(1, 0)),    # wants NORTH -> back into (1,1)
    ]
    return [network.plant_packet(router, inport, dst)
            for router, inport, dst in spec]


def simulate(network: Network, cycles: int,
             traffic=None) -> Simulator:
    """Run a network (and optional traffic source) for some cycles."""
    simulator = Simulator()
    if traffic is not None:
        simulator.register(traffic)
    simulator.register(network)
    simulator.run(cycles)
    return simulator


@pytest.fixture
def mesh4() -> Network:
    """A 4x4 1-VC mesh with minimal adaptive routing, no SPIN."""
    return make_mesh_network()


@pytest.fixture
def mesh4_spin() -> Network:
    """A 4x4 1-VC mesh with minimal adaptive routing and SPIN (tDD=32)."""
    return make_mesh_network(spin=SpinParams(tdd=32))


@pytest.fixture
def sim_config_short() -> SimulationConfig:
    """A short warmup/measure/drain window for integration tests."""
    return SimulationConfig(warmup_cycles=200, measure_cycles=1500,
                            drain_cycles=1500, deadlock_abort_cycles=1000)
