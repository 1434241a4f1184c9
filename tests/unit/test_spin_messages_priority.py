"""Unit tests for SPIN special messages and rotating priority."""

from repro.core.messages import (
    KillMoveMessage,
    MoveMessage,
    ProbeMessage,
    ProbeMoveMessage,
)
from repro.core.priority import RotatingPriority


class TestMessageClassPriorities:
    def test_paper_ordering(self):
        # probe_move > move = kill_move > probe (Sec. IV-C1)
        probe = ProbeMessage(sender=0, send_cycle=0)
        move = MoveMessage(sender=0, send_cycle=0)
        kill = KillMoveMessage(sender=0, send_cycle=0)
        probe_move = ProbeMoveMessage(sender=0, send_cycle=0)
        assert probe_move.class_priority > move.class_priority
        assert move.class_priority == kill.class_priority
        assert move.class_priority > probe.class_priority

    def test_kinds(self):
        assert ProbeMessage(0, 0).kind == "probe"
        assert MoveMessage(0, 0).kind == "move"
        assert ProbeMoveMessage(0, 0).kind == "probe_move"
        assert KillMoveMessage(0, 0).kind == "kill_move"


class TestProbePath:
    def test_fork_appends_outport(self):
        probe = ProbeMessage(sender=3, send_cycle=10)
        forked = probe.forked(2).forked(0)
        assert forked.path == (2, 0)
        assert forked.sender == 3
        assert forked.send_cycle == 10

    def test_fork_does_not_mutate_original(self):
        probe = ProbeMessage(sender=3, send_cycle=10)
        probe.forked(1)
        assert probe.path == ()


class TestMovePath:
    def test_advanced_strips_head_and_bumps_index(self):
        move = MoveMessage(sender=1, send_cycle=5, path=(2, 3, 0),
                           spin_cycle=40, hop_index=1)
        nxt = move.advanced()
        assert nxt.path == (3, 0)
        assert nxt.hop_index == 2
        assert nxt.spin_cycle == 40
        assert move.first_port == 2
        assert nxt.first_port == 3

    def test_advance_does_not_mutate_original(self):
        move = MoveMessage(sender=1, send_cycle=5, path=(2, 3),
                           spin_cycle=40, hop_index=1)
        move.advanced()
        assert (move.path, move.hop_index) == ((2, 3), 1)


def slot_fields(cls):
    """Every field of an SM class, read off its ``__slots__`` chain."""
    return [name for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())]


def filled(cls):
    """An instance whose every field holds a value no default has."""
    sm = cls(sender=0, send_cycle=0)
    for number, name in enumerate(slot_fields(cls)):
        setattr(sm, name, (7, 8, 9) if name == "path" else 101 + number)
    return sm


SM_CLASSES = (ProbeMessage, MoveMessage, ProbeMoveMessage, KillMoveMessage)


class TestCopyHelpers:
    """The copy helpers store each field by hand: a field added to a class
    and forgotten in a helper would be dropped silently."""

    def test_every_class_has_the_common_fields(self):
        for cls in SM_CLASSES:
            fields = slot_fields(cls)
            assert fields[:4] == ["sender", "send_cycle", "path", "vnet"]
            assert len(fields) == len(set(fields))

    def _assert_copied(self, original, copy, changed):
        assert type(copy) is type(original)
        assert copy is not original
        for name in slot_fields(type(original)):
            if name not in changed:
                assert getattr(copy, name) == getattr(original, name), name

    def test_forked_copies_every_other_field(self):
        probe = filled(ProbeMessage)
        forked = probe.forked(4)
        self._assert_copied(probe, forked, {"path"})
        assert forked.path == (7, 8, 9, 4)

    def test_advanced_copies_every_other_field(self):
        for cls in SM_CLASSES[1:]:
            sm = filled(cls)
            advanced = sm.advanced()
            self._assert_copied(sm, advanced, {"path", "hop_index"})
            assert advanced.path == (8, 9)
            assert advanced.hop_index == sm.hop_index + 1

    def test_with_path_copies_every_other_field(self):
        for cls in SM_CLASSES:
            sm = filled(cls)
            copy = sm.with_path((5,))
            self._assert_copied(sm, copy, {"path"})
            assert copy.path == (5,)
            assert sm.path == (7, 8, 9)


class TestRotatingPriority:
    def test_initial_priorities_are_ids(self):
        prio = RotatingPriority(num_routers=8, epoch_length=100)
        assert [prio.dynamic_priority(r, 0) for r in range(8)] == list(range(8))

    def test_rotation_after_epoch(self):
        prio = RotatingPriority(num_routers=8, epoch_length=100)
        assert prio.dynamic_priority(0, 100) == 1
        assert prio.dynamic_priority(7, 100) == 0

    def test_every_router_eventually_highest(self):
        prio = RotatingPriority(num_routers=5, epoch_length=10)
        winners = {prio.highest_priority_router(epoch * 10)
                   for epoch in range(5)}
        assert winners == set(range(5))

    def test_highest_matches_dynamic(self):
        prio = RotatingPriority(num_routers=6, epoch_length=13)
        for cycle in (0, 13, 26, 77, 130):
            top = prio.highest_priority_router(cycle)
            values = [prio.dynamic_priority(r, cycle) for r in range(6)]
            assert values[top] == max(values) == 5

    def test_cycles_until_highest(self):
        prio = RotatingPriority(num_routers=4, epoch_length=10)
        for router in range(4):
            wait = prio.cycles_until_highest(router, 0)
            assert prio.highest_priority_router(wait) == router

    def test_priorities_distinct_within_cycle(self):
        prio = RotatingPriority(num_routers=9, epoch_length=7)
        for cycle in (0, 7, 50):
            values = [prio.dynamic_priority(r, cycle) for r in range(9)]
            assert sorted(values) == list(range(9))
