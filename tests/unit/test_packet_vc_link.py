"""Unit tests for packets, virtual channels and links."""

import pytest

from repro.errors import ProtocolError, RoutingError
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.vc import VirtualChannel, first_idle, min_active_time


def make_packet(length=1, dst_router=3):
    return Packet(src_node=0, dst_node=dst_router, src_router=0,
                  dst_router=dst_router, length=length, create_cycle=10)


class TestPacket:
    def test_uids_are_unique(self):
        assert make_packet().uid != make_packet().uid

    def test_routing_target_follows_phase(self):
        packet = make_packet(dst_router=5)
        packet.intermediate_router = 2
        packet.phase = 0
        assert packet.routing_target == 2
        assert not packet.reached_phase_target(2)  # flips to phase 1
        assert packet.routing_target == 5
        assert packet.reached_phase_target(5)

    def test_reached_phase_target_at_destination(self):
        packet = make_packet(dst_router=5)
        assert packet.reached_phase_target(5)
        assert not packet.reached_phase_target(4)

    def test_latency_requires_delivery(self):
        packet = make_packet()
        with pytest.raises(ValueError):
            packet.latency()
        packet.eject_cycle = 42
        assert packet.latency() == 32

    def test_network_latency_excludes_queueing(self):
        packet = make_packet()
        packet.inject_cycle = 15
        packet.eject_cycle = 40
        assert packet.network_latency() == 25
        assert packet.latency() == 30


class TestVirtualChannel:
    def test_reserve_timing_contract(self):
        vc = VirtualChannel(router=1, inport=0, index=0, vnet=0)
        packet = make_packet(length=5)
        vc.reserve(packet, now=100, link_latency=2, router_latency=1)
        assert vc.head_arrival == 102
        assert vc.ready_at == 103
        assert vc.tail_arrival == 106
        assert vc.is_active()
        assert not vc.is_ready(102)
        assert vc.is_ready(103)
        assert not vc.fully_arrived(105)
        assert vc.fully_arrived(106)

    def test_double_reserve_raises(self):
        vc = VirtualChannel(1, 0, 0, 0)
        vc.reserve(make_packet(), now=0, link_latency=1, router_latency=1)
        with pytest.raises(ProtocolError):
            vc.reserve(make_packet(), now=5, link_latency=1, router_latency=1)

    def test_release_frees_after_drain(self):
        vc = VirtualChannel(1, 0, 0, 0)
        packet = make_packet(length=5)
        vc.reserve(packet, now=0, link_latency=1, router_latency=1)
        released = vc.release(now=10)
        assert released is packet
        assert not vc.is_idle(14)   # tail drains through cycle 14
        assert vc.is_idle(15)

    def test_release_empty_raises(self):
        vc = VirtualChannel(1, 0, 0, 0)
        with pytest.raises(ProtocolError):
            vc.release(0)

    def test_freeze_and_clear(self):
        vc = VirtualChannel(1, 0, 0, 0)
        vc.reserve(make_packet(), now=0, link_latency=1, router_latency=1)
        vc.freeze(outport=2, source=7, spin_cycle=50, path_index=3)
        assert vc.frozen
        assert vc.freeze_outport == 2
        vc.clear_freeze()
        assert not vc.frozen
        assert vc.freeze_source == -1

    def test_freeze_empty_raises(self):
        vc = VirtualChannel(1, 0, 0, 0)
        with pytest.raises(ProtocolError):
            vc.freeze(0, 0, 0, 0)

    def test_release_clears_freeze(self):
        vc = VirtualChannel(1, 0, 0, 0)
        vc.reserve(make_packet(), now=0, link_latency=1, router_latency=1)
        vc.freeze(2, 7, 50, 3)
        vc.release(10)
        assert not vc.frozen

    def test_active_time(self):
        vc = VirtualChannel(1, 0, 0, 0)
        assert vc.active_time(100) == 0
        vc.reserve(make_packet(), now=40, link_latency=1, router_latency=1)
        assert vc.active_time(100) == 60


class TestVcRows:
    """``first_idle`` / ``min_active_time`` over a row of VCs."""

    @staticmethod
    def row():
        idle = VirtualChannel(1, 0, 0, 0)
        draining = VirtualChannel(1, 0, 1, 0)
        draining.reserve(make_packet(length=5), now=0, link_latency=1,
                         router_latency=1)
        draining.release(20)  # free again at 25
        held = VirtualChannel(1, 0, 2, 0)
        held.reserve(make_packet(), now=12, link_latency=1, router_latency=1)
        return idle, draining, held

    def test_first_idle_skips_draining_and_held(self):
        idle, draining, held = self.row()
        assert first_idle((held, draining, idle), 22) is idle
        assert first_idle((held, draining), 22) is None
        assert first_idle((held, draining), 25) is draining
        assert first_idle((), 0) is None

    def test_min_active_time_is_zero_with_an_idle_vc(self):
        idle, draining, held = self.row()
        assert min_active_time((held, idle), 30) == 0

    def test_min_active_time_counts_a_draining_vc_as_age_zero(self):
        _, draining, held = self.row()
        assert min_active_time((held,), 22) == 10
        assert min_active_time((held, draining), 22) == 0

    def test_min_active_time_of_nothing_raises(self):
        with pytest.raises(RoutingError):
            min_active_time((), 0)


class TestLink:
    def test_occupancy_window(self):
        link = Link(0, 1, 2, 3, latency=1)
        assert link.is_free(0)
        link.occupy(now=10, flits=5)
        assert not link.is_free(14)
        assert link.is_free(15)

    def test_utilization_split(self):
        link = Link(0, 1, 2, 3, latency=1)
        link.reset_utilization(0)
        link.occupy(0, flits=30)
        for _ in range(10):
            link.record_sm()
        flit, sm, idle = link.utilization(now=100)
        assert flit == pytest.approx(0.3)
        assert sm == pytest.approx(0.1)
        assert idle == pytest.approx(0.6)

    def test_reset_utilization(self):
        link = Link(0, 1, 2, 3, latency=1)
        link.occupy(0, flits=50)
        link.reset_utilization(100)
        flit, sm, idle = link.utilization(150)
        assert flit == 0.0
        assert idle == 1.0
