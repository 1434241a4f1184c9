"""Routing algorithm interface.

A routing algorithm answers, once per cycle for every ready head packet:

* :meth:`decide` — which output port does this packet request *now*?  Fully
  adaptive algorithms may answer differently from cycle to cycle as
  congestion evolves; the answer is recorded in ``packet.current_request``
  (SPIN's probes read it).
* :meth:`vc_choices` — which downstream VC classes may the packet occupy
  through that port (Dally-style VC-ordering disciplines restrict this)?

The default :meth:`select` policy implements the adaptive output selection of
the paper's FAvORS algorithm (Sec. V): prefer a random port with an idle
permitted VC; when every permitted VC is busy, wait on the port whose VC has
been active for the least time (a congestion proxy available from credits).
Deterministic algorithms simply return a single candidate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, RoutingError
from repro.network.packet import Packet
from repro.network.vc import first_idle, min_active_time
from repro.sim.rng import DeterministicRng


class RoutingAlgorithm(ABC):
    """Base class for all routing algorithms."""

    #: Human-readable name used in reports.
    name = "routing"
    #: Whether every hop reduces distance to the routing target.
    minimal = True
    #: Theorem parameter p: maximum misroutes per packet (Sec. III, Case II).
    max_misroutes = 0
    #: Deadlock-freedom theory this algorithm relies on (for reports).
    theory = "SPIN"

    def __init__(self, seed: int = 0) -> None:
        self.rng = DeterministicRng(seed).fork(f"routing:{self.name}")
        self.network = None
        self.topology = None
        #: The topology's shared ``[router][target]`` productive-port table
        #: (bound with the network; see :meth:`productive_ports`).
        self._productive = ()
        #: Every VC index of a vnet — what an unrestricted algorithm permits
        #: (one shared object, so handing it out costs nothing per call).
        self._all_vcs: Sequence[int] = ()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, network) -> None:
        """Attach to a network; validates configuration requirements."""
        self.network = network
        self.topology = network.topology
        self._productive = self.topology.productive_table()
        self._all_vcs = range(network.config.vcs_per_vnet)
        self._setup()

    def _setup(self) -> None:
        """Algorithm-specific validation/precomputation after binding."""

    def _require_vcs(self, minimum: int) -> None:
        if self.network.config.vcs_per_vnet < minimum:
            raise ConfigurationError(
                f"{self.name} needs at least {minimum} VCs per vnet "
                f"(configured: {self.network.config.vcs_per_vnet})"
            )

    # ------------------------------------------------------------------
    # Per-cycle decision
    # ------------------------------------------------------------------
    def decide(self, router, inport: int, packet: Packet,
               now: int) -> Optional[int]:
        """Request an output port for a head packet this cycle.

        Returns the requested port (possibly an ejection port) and records
        it in ``packet.current_request``.  Returns None when the packet has
        nothing to request (should not happen in practice).
        """
        if packet.reached_phase_target(router.id):
            port = self.network.eject_port_for(packet.dst_node)
            packet.current_request = port
            return port
        candidates = self.candidate_outports(router, packet)
        if not candidates and not self.network.dead_link_count:
            raise RoutingError(
                f"{self.name}: no candidate ports at router {router.id} "
                f"for {packet!r}"
            )
        if self.network.dead_link_count:
            candidates = self._filter_dead_links(router, packet, candidates,
                                                 now)
            if not candidates:
                packet.current_request = None
                return None
        outport = self.select(router, packet, candidates, now)
        packet.current_request = outport
        return outport

    def _filter_dead_links(self, router, packet: Packet,
                           candidates: Sequence[int],
                           now: int) -> Sequence[int]:
        """Graceful degradation around runtime link failures.

        Removes candidates whose output link is dead.  A packet that loses
        some-but-not-all candidates is counted as *rerouted* (once); a
        packet left with no alive candidate is *stranded* — it waits, and
        the fault injector may reclaim it after its strand timeout.
        """
        out_links = router.out_links
        alive = [port for port in candidates
                 if (link := out_links.get(port)) is None or link.up]
        state = packet.route_state
        if alive and len(alive) == len(candidates):
            state.pop("stranded_since", None)
            return candidates
        stats = self.network.stats
        if not alive:
            if "stranded_since" not in state:
                state["stranded_since"] = now
                stats.count("packets_stranded")
            return alive
        state.pop("stranded_since", None)
        if not state.get("rerouted"):
            state["rerouted"] = True
            stats.count("reroutes")
        return alive

    @abstractmethod
    def candidate_outports(self, router, packet: Packet) -> Sequence[int]:
        """Legal output ports for the packet at this router."""

    def select(self, router, packet: Packet, candidates: Sequence[int],
               now: int) -> int:
        """Pick one port to request among the legal candidates.

        When every permitted VC is busy, the previous cycle's request is
        kept if it is still a legal candidate ("sticky" blocking): a real
        router holds its switch request asserted while blocked.  Stability
        matters to SPIN — probes trace ``current_request`` edges, and a
        wait set that flaps from cycle to cycle breaks probe/move/spin
        chains and serializes recovery.
        """
        if len(candidates) == 1:
            return candidates[0]
        permitted_vcs = self.permitted_vcs
        free = [
            port for port in candidates
            if first_idle(permitted_vcs(packet, router, port), now) is not None
        ]
        if free:
            return free[0] if len(free) == 1 else self.rng.choice(free)
        previous = packet.current_request
        if previous is not None and previous in candidates:
            return previous
        return self.wait_choice(router, packet, candidates, now)

    def wait_choice(self, router, packet: Packet,
                    candidates: Sequence[int], now: int) -> int:
        """Port to wait on when no candidate has an idle VC.

        The default picks the least-active downstream VC (FAvORS, Sec. V),
        the lower port on a tie.
        """
        permitted_vcs = self.permitted_vcs
        return min(
            (min_active_time(permitted_vcs(packet, router, port), now), port)
            for port in candidates
        )[1]

    # ------------------------------------------------------------------
    # VC disciplines
    # ------------------------------------------------------------------
    def vc_choices(self, packet: Packet, router, outport: int) -> Sequence[int]:
        """Permitted downstream VC indices (within the packet's vnet)."""
        return self._all_vcs

    def injection_vc_choices(self, packet: Packet) -> Sequence[int]:
        """Permitted VC indices at the injection port."""
        return self._all_vcs

    def permitted_vcs(self, packet: Packet, router, outport: int):
        """The downstream VCs :meth:`vc_choices` permits, as objects, in
        its order — the row ``select``, ``wait_choice`` and
        ``pick_downstream_vc`` look at."""
        vcs = router.downstream_vcs(outport, packet.vnet)
        choices = self.vc_choices(packet, router, outport)
        if choices is self._all_vcs:
            return vcs
        return [vcs[i] for i in choices]

    def pick_downstream_vc(self, router, packet: Packet, outport: int,
                           now: int):
        """Concrete idle downstream VC for a grant, or None."""
        return first_idle(self.permitted_vcs(packet, router, outport), now)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_inject(self, packet: Packet, now: int) -> None:
        """Source routing decisions (Valiant intermediate, VC class init)."""

    def on_hop(self, packet: Packet, router, outport: int) -> None:
        """Per-hop state updates (e.g. VC-class increments)."""

    def on_link_state_change(self, link, up: bool, now: int) -> None:
        """A link failed or recovered at runtime (see repro.faults).

        The base behaviour is a no-op: adaptive algorithms degrade
        naturally through the dead-link candidate filter.  Table-based
        algorithms override this to recompute their tables around the
        failure (e.g. :class:`repro.routing.table.UpDownRouting`).
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def productive_ports(self, router, target: int) -> Tuple[int, ...]:
        """Output ports that reduce the hop distance to ``target``.

        Rows live on the topology (:meth:`Topology.productive_ports` fills
        them, once per pair per process); this only short-cuts the lookup.
        """
        row = self._productive[router.id]
        ports = row[target] if row is not None else None
        if ports is None:
            ports = self.topology.productive_ports(router.id, target)
        return ports

    def wait_targets(self, router, packet: Packet,
                     now: int) -> List[Tuple[int, list]]:
        """All (outport, downstream VC objects) pairs the packet may use.

        Consumed by the ground-truth deadlock analysis
        (:mod:`repro.deadlock.waitgraph`): a blocked packet can make progress
        if *any* of these VCs frees up.
        """
        if packet.reached_phase_target(router.id):
            return []
        dead_links = self.network.dead_link_count
        targets = []
        for port in self.candidate_outports(router, packet):
            if dead_links and not self.network.link_is_up(router.id, port):
                continue  # a dead port can never grant progress
            targets.append(
                (port, list(self.permitted_vcs(packet, router, port))))
        return targets
