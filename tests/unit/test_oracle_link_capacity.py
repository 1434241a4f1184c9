"""The oracle's ``link_capacity`` family: a link carries one packet a cycle.

The mutation is the one ``Network.ring_defect`` exists to refuse: a closed
ring that crosses every link twice, spun through ``Network.rotate`` with
the check skipped.  Each move is one legal hop (``teleport`` stays quiet),
so only the capacity census can see that two packets crossed one link.
"""

from repro.verify import InvariantOracle, OracleConfig

from tests.conftest import make_ring_network
from tests.unit.test_network_rotate import closed_moves, two_lap_ring


def _spin_past_the_check(moves_of):
    network = make_ring_network(m=4, vcs=2)
    moves = moves_of(two_lap_ring(network, 4))
    oracle = InvariantOracle(network, OracleConfig(mode="record"))
    now = network.now
    oracle.check_now(now)
    network.rotate(moves, now)
    found = oracle.check_now(now + 1)
    return moves, found


def test_two_lap_ring_fires_link_capacity():
    moves, found = _spin_past_the_check(closed_moves)
    capacity = [v for v in found if v.invariant == "link_capacity"]
    # One violation per link: four links, two packets on each.
    assert len(capacity) == 4
    assert {(v.context["router"], v.context["inport"]) for v in capacity} \
        == {(target.router, target.inport) for _, _, target in moves}
    assert not [v for v in found if v.invariant == "teleport"]


def test_one_lap_is_within_capacity():
    def one_lap(entries):
        return closed_moves(entries[:4])

    _, found = _spin_past_the_check(one_lap)
    assert not [v for v in found if v.invariant == "link_capacity"]
