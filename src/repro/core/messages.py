"""SPIN special messages (SMs).

SMs travel on the regular network links, bufferlessly, with strict priority
over flits and among themselves (paper Sec. IV-C1):

    probe_move  >  move = kill_move  >  probe  >  flit

A *probe* accumulates the outport taken at every router it traverses; the
loop-shaped path it returns with is the deadlocked dependency chain.  The
*move*, *probe_move* and *kill_move* messages replay that path, stripping
the leading port id at each hop, so every router sees its own outport first.

SMs are plain ``__slots__`` records.  Nothing writes to one after it is
sent: every hop that changes an SM (a probe fork, a move advancing, an
injected corruption) builds a new one through :meth:`ProbeMessage.forked`,
:meth:`PathFollowingMessage.advanced` or :meth:`SpecialMessage.with_path`.
Those copies sit on the probe/move hot path (one per loop hop per probed
dependency), so the first two store each field by hand; a field added to a
class must be added to its copy helpers too (tests/unit/
test_spin_messages_priority.py checks them against the ``__slots__`` chain).
"""

from __future__ import annotations

from typing import Tuple

#: Class priorities (higher wins output-link contention).
PROBE_PRIORITY = 1
MOVE_PRIORITY = 2
KILL_MOVE_PRIORITY = 2
PROBE_MOVE_PRIORITY = 3

_new = object.__new__


def _fields(cls) -> Tuple[str, ...]:
    """Every field of an SM class, base class first."""
    return tuple(name for klass in reversed(cls.__mro__)
                 for name in klass.__dict__.get("__slots__", ()))


class SpecialMessage:
    """Common SM fields.

    Attributes:
        sender: Router id of the recovery initiator.
        send_cycle: Cycle the initiator emitted the SM.
        path: Outport ids of the routers the SM has yet to visit (for a
            probe: the ports visited so far instead).
        vnet: Virtual network (message class) the recovery concerns.
            Routing deadlocks form within one message class (packets can
            only wait on VCs of their own vnet), so all SM processing —
            probe forking, dependency checks, freezing — is scoped to it;
            idle buffers of *other* vnets at a port say nothing about the
            probed chain.
    """

    __slots__ = ("sender", "send_cycle", "path", "vnet")

    kind = "sm"
    class_priority = 0

    def __init__(self, sender: int, send_cycle: int,
                 path: Tuple[int, ...] = (), vnet: int = 0) -> None:
        self.sender = sender
        self.send_cycle = send_cycle
        self.path = path
        self.vnet = vnet

    def with_path(self, path: Tuple[int, ...]) -> "SpecialMessage":
        """Copy of this SM with a different path."""
        clone = _new(type(self))
        for name in _fields(type(self)):
            setattr(clone, name, getattr(self, name))
        clone.path = path
        return clone

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in _fields(type(self))))


class ProbeMessage(SpecialMessage):
    """Traces (and confirms) a deadlocked dependency chain.

    Attributes:
        origin_inport: Input port of the VC the initiator probed.
        origin_outport: Output port the probe was first sent through.  The
            recorded path aligns hop-by-hop with a walk starting through
            this port, so the move must use it; carrying it in the probe
            keeps acceptance correct even when the initiator has since
            re-probed a different dependency (tDD shorter than the loop).
    """

    __slots__ = ("origin_inport", "origin_outport")

    kind = "probe"
    class_priority = PROBE_PRIORITY

    def __init__(self, sender: int, send_cycle: int,
                 path: Tuple[int, ...] = (), vnet: int = 0,
                 origin_inport: int = -1, origin_outport: int = -1) -> None:
        self.sender = sender
        self.send_cycle = send_cycle
        self.path = path
        self.vnet = vnet
        self.origin_inport = origin_inport
        self.origin_outport = origin_outport

    def forked(self, outport: int) -> "ProbeMessage":
        """Copy forked out of ``outport``, with the port appended."""
        clone = _new(ProbeMessage)
        clone.sender = self.sender
        clone.send_cycle = self.send_cycle
        clone.path = self.path + (outport,)
        clone.vnet = self.vnet
        clone.origin_inport = self.origin_inport
        clone.origin_outport = self.origin_outport
        return clone


class PathFollowingMessage(SpecialMessage):
    """Base for SMs that replay a latched loop path (move family).

    Attributes:
        spin_cycle: Absolute cycle of the synchronized spin this SM arranges
            (unused by kill_move).
        hop_index: Position along the loop, 0 at the initiator.
    """

    __slots__ = ("spin_cycle", "hop_index")

    def __init__(self, sender: int, send_cycle: int,
                 path: Tuple[int, ...] = (), vnet: int = 0,
                 spin_cycle: int = -1, hop_index: int = 1) -> None:
        self.sender = sender
        self.send_cycle = send_cycle
        self.path = path
        self.vnet = vnet
        self.spin_cycle = spin_cycle
        self.hop_index = hop_index

    def advanced(self) -> "PathFollowingMessage":
        """Copy with the leading port stripped and the hop index bumped."""
        clone = _new(type(self))
        clone.sender = self.sender
        clone.send_cycle = self.send_cycle
        clone.path = self.path[1:]
        clone.vnet = self.vnet
        clone.spin_cycle = self.spin_cycle
        clone.hop_index = self.hop_index + 1
        return clone

    @property
    def first_port(self) -> int:
        """The receiving router's outport on the loop."""
        return self.path[0]


class MoveMessage(PathFollowingMessage):
    """Conveys the spin cycle; freezes one VC per loop router."""

    __slots__ = ()

    kind = "move"
    class_priority = MOVE_PRIORITY


class ProbeMoveMessage(PathFollowingMessage):
    """Joint probe+move for repeat spins (the Sec. IV-B4 optimization)."""

    __slots__ = ()

    kind = "probe_move"
    class_priority = PROBE_MOVE_PRIORITY


class KillMoveMessage(PathFollowingMessage):
    """Cancels a pending spin; unfreezes VCs along the loop."""

    __slots__ = ()

    kind = "kill_move"
    class_priority = KILL_MOVE_PRIORITY
