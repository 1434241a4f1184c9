"""Unit tests for torus and ring topologies."""

import pytest

from repro.errors import TopologyError
from repro.topology.mesh import EAST, NORTH, SOUTH, WEST
from repro.topology.ring import CLOCKWISE, COUNTER_CLOCKWISE, RingTopology
from repro.topology.torus import TorusTopology


class TestTorus:
    def test_every_router_has_four_ports(self):
        torus = TorusTopology(4, 4)
        assert all(torus.radix(r) == 4 for r in range(torus.num_routers))

    def test_validate(self):
        TorusTopology(4, 3).validate()

    def test_rejects_width_two(self):
        with pytest.raises(TopologyError):
            TorusTopology(2, 4)

    def test_wraparound_neighbor(self):
        torus = TorusTopology(4, 4)
        assert torus.neighbor_in(torus.router_at(0, 0), WEST) == torus.router_at(3, 0)
        assert torus.neighbor_in(torus.router_at(0, 0), NORTH) == torus.router_at(0, 3)

    def test_min_hops_uses_wraparound(self):
        torus = TorusTopology(8, 8)
        assert torus.min_hops(torus.router_at(0, 0), torus.router_at(7, 0)) == 1
        assert torus.min_hops(torus.router_at(0, 0), torus.router_at(4, 4)) == 8

    def test_min_hops_matches_bfs(self):
        torus = TorusTopology(4, 4)
        bfs = torus._all_pairs_hops()
        for src in range(torus.num_routers):
            for dst in range(torus.num_routers):
                assert torus.min_hops(src, dst) == bfs[src][dst]

    def test_directions_toward_prefers_short_way(self):
        torus = TorusTopology(8, 8)
        dirs = torus.directions_toward(torus.router_at(0, 0), torus.router_at(7, 0))
        assert dirs == [WEST]

    def test_directions_toward_ties_give_both(self):
        torus = TorusTopology(8, 8)
        dirs = torus.directions_toward(torus.router_at(0, 0), torus.router_at(4, 0))
        assert set(dirs) == {EAST, WEST}


class TestRing:
    def test_structure(self):
        ring = RingTopology(6)
        ring.validate()
        assert ring.num_routers == 6
        assert all(ring.radix(r) == 2 for r in range(6))

    def test_rejects_tiny_ring(self):
        with pytest.raises(TopologyError):
            RingTopology(2)

    def test_neighbors(self):
        ring = RingTopology(5)
        assert ring.clockwise_neighbor(4) == 0
        assert ring.counter_clockwise_neighbor(0) == 4

    def test_ports_are_consistent(self):
        ring = RingTopology(5)
        for router in range(5):
            neighbors = ring.neighbors(router)
            assert neighbors[CLOCKWISE][0] == ring.clockwise_neighbor(router)
            assert neighbors[COUNTER_CLOCKWISE][0] == (
                ring.counter_clockwise_neighbor(router))

    def test_min_hops_bidirectional(self):
        ring = RingTopology(6)
        assert ring.min_hops(0, 5) == 1
        assert ring.min_hops(0, 3) == 3

    def test_min_hops_unidirectional(self):
        ring = RingTopology(6, bidirectional=False)
        assert ring.min_hops(0, 5) == 5
        assert ring.min_hops(5, 0) == 1


class TestHopsTo:
    """``hops_to(dst)`` is the ``min_hops(., dst)`` column as one row."""

    @pytest.mark.parametrize("topology", [
        TorusTopology(4, 3),
        RingTopology(6),
        # Forward-only distances: not symmetric, so the row must be the
        # column toward the destination, not the row from it.
        RingTopology(5, bidirectional=False),
    ], ids=["torus", "ring", "unidirectional-ring"])
    def test_matches_min_hops(self, topology):
        for dst in range(topology.num_routers):
            assert list(topology.hops_to(dst)) == [
                topology.min_hops(src, dst)
                for src in range(topology.num_routers)]
