"""Unit tests for the dragonfly topology."""

import pytest

from repro.errors import TopologyError
from repro.topology.dragonfly import DragonflyTopology


@pytest.fixture
def small():
    """Balanced p=2, a=4, h=2 dragonfly: 9 groups, 36 routers, 72 nodes."""
    return DragonflyTopology(2, 4, 2)


class TestStructure:
    def test_counts(self, small):
        assert small.num_groups == 4 * 2 + 1 == 9
        assert small.num_routers == 36
        assert small.num_nodes == 72

    def test_paper_scale_parameters(self):
        full = DragonflyTopology(4, 8, 4)
        assert full.num_groups == 33
        assert full.num_routers == 264
        assert full.num_nodes == 1056  # the paper's "1024-node" dragonfly

    def test_validate(self, small):
        small.validate()

    def test_radix(self, small):
        # a-1 local + h global channels.
        assert all(small.radix(r) == 3 + 2 for r in range(small.num_routers))

    def test_terminals_per_router(self, small):
        assert small.router_of_node(0) == 0
        assert small.router_of_node(1) == 0
        assert small.router_of_node(2) == 1

    def test_rejects_degenerate(self):
        with pytest.raises(TopologyError):
            DragonflyTopology(1, 1, 1)


class TestGroups:
    def test_group_of(self, small):
        assert small.group_of(0) == 0
        assert small.group_of(4) == 1
        assert small.local_index(5) == 1

    def test_intra_group_fully_connected(self, small):
        for group in range(small.num_groups):
            routers = [small.router_in_group(group, i) for i in range(small.a)]
            for r in routers:
                neighbors = {
                    peer for peer, _, _ in small.neighbors(r).values()
                }
                for peer in routers:
                    if peer != r:
                        assert peer in neighbors

    def test_every_group_pair_has_exactly_one_channel(self, small):
        pairs = set()
        for link in small.links():
            src_group = small.group_of(link.src)
            dst_group = small.group_of(link.dst)
            if src_group != dst_group:
                assert (src_group, dst_group) not in pairs
                pairs.add((src_group, dst_group))
        expected = small.num_groups * (small.num_groups - 1)
        assert len(pairs) == expected

    def test_gateway_inverse(self, small):
        for src in range(small.num_groups):
            for dst in range(small.num_groups):
                if src == dst:
                    continue
                router, port = small.global_gateway(src, dst)
                assert small.group_of(router) == src
                local_port_index = port - (small.a - 1)
                assert small.global_channel_target(router, local_port_index) == dst

    def test_global_links_have_higher_latency(self, small):
        for link in small.links():
            crosses_groups = small.group_of(link.src) != small.group_of(link.dst)
            assert link.latency == (3 if crosses_groups else 1)

    def test_is_global_port(self, small):
        assert not small.is_global_port(0)
        assert not small.is_global_port(small.a - 2)
        assert small.is_global_port(small.a - 1)


class TestDistances:
    def test_min_hops_same_group(self, small):
        assert small.min_hops(0, 1) == 1
        assert small.min_hops(0, 0) == 0

    def test_min_hops_cross_group_at_most_three(self, small):
        for src in range(small.num_routers):
            for dst in range(small.num_routers):
                assert small.min_hops(src, dst) <= 3

    def test_min_hops_is_exact_graph_distance(self, small):
        bfs = small._all_pairs_hops()
        for src in range(small.num_routers):
            for dst in range(small.num_routers):
                assert small.min_hops(src, dst) == bfs[src][dst], (src, dst)

    def test_hops_to_is_the_distance_column(self, small):
        for dst in range(small.num_routers):
            assert list(small.hops_to(dst)) == [
                small.min_hops(src, dst) for src in range(small.num_routers)]
        # Served from the one cached distance table, not a second copy.
        assert small.hops_to(3) is small._distance_cache[3]
        assert not small._hop_rows

    def test_canonical_path_bounds_graph_distance(self, small):
        # The local-global-local path always exists, so the true distance
        # never exceeds it; shared-gateway shortcuts may beat it.
        for src in range(small.num_routers):
            for dst in range(small.num_routers):
                assert small.min_hops(src, dst) <= small.canonical_min_hops(src, dst)
