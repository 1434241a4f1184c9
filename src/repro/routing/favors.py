"""FAvORS — Fully Adaptive One-VC Routing with Spin (paper Sec. V).

The paper's headline routing capability: a truly one-VC, fully adaptive,
deadlock-free (via SPIN) algorithm with two variants:

* :class:`FavorsMinimal` — adaptive among all minimal paths; output selected
  randomly among ports with an idle next-hop VC, otherwise the port whose
  next-hop VC has been active least long (a congestion proxy read from
  credits).
* :class:`FavorsNonMinimal` — additionally decides *once at the source*
  whether to detour through a random intermediate node, using the paper's
  rule:  route non-minimally iff
  ``H_min + t_active_min > H_nonmin + t_active_nonmin``.
  Because a packet is misrouted at most once, the algorithm is livelock-free
  and the SPIN theorem's misroute bound holds with p = 1.
"""

from __future__ import annotations

from repro.network.packet import Packet
from repro.network.vc import first_idle, min_active_time
from repro.routing.adaptive import MinimalAdaptiveRouting


class FavorsMinimal(MinimalAdaptiveRouting):
    """FAvORS, minimal variant (the paper's mesh FAvORS-Min).

    Args:
        seed: RNG seed for adaptive tie-breaks.
        wait_policy: Which port a blocked packet waits on when no candidate
            has an idle VC — "least_active" (the paper's credit-based
            congestion proxy) or "random" (ablation baseline isolating the
            proxy's value; see DESIGN.md §6).
    """

    name = "FAvORS-Min"
    theory = "SPIN"

    def __init__(self, seed: int = 0, wait_policy: str = "least_active") -> None:
        super().__init__(seed)
        if wait_policy not in ("least_active", "random"):
            raise ValueError(f"unknown wait policy {wait_policy!r}")
        self.wait_policy = wait_policy

    def wait_choice(self, router, packet, candidates, now):
        if self.wait_policy == "random":
            return self.rng.choice(list(candidates))
        return super().wait_choice(router, packet, candidates, now)


class FavorsNonMinimal(MinimalAdaptiveRouting):
    """FAvORS, non-minimal variant (the paper's dragonfly FAvORS-NMin)."""

    name = "FAvORS-NMin"
    minimal = False
    max_misroutes = 1
    theory = "SPIN"

    def on_inject(self, packet: Packet, now: int) -> None:
        if packet.dst_router == packet.src_router:
            return
        source = self.network.routers[packet.src_router]
        min_ports = self.productive_ports(source, packet.dst_router)
        vnet = packet.vnet
        min_rows = [source.downstream_vcs(port, vnet) for port in min_ports]
        if any(first_idle(vcs, now) is not None for vcs in min_rows):
            return  # a free minimal first hop: the network is lightly loaded
        intermediate = self._random_intermediate(packet)
        if intermediate is None:
            return
        topology = self.topology
        h_min = topology.min_hops(packet.src_router, packet.dst_router)
        h_non = (topology.min_hops(packet.src_router, intermediate)
                 + topology.min_hops(intermediate, packet.dst_router))
        t_min = min(min_active_time(vcs, now) for vcs in min_rows)
        t_non = min(
            min_active_time(source.downstream_vcs(port, vnet), now)
            for port in self.productive_ports(source, intermediate)
        )
        if h_min + t_min > h_non + t_non:
            packet.intermediate_router = intermediate
            packet.phase = 0

    def _random_intermediate(self, packet: Packet):
        """A random router distinct from source and destination."""
        count = self.topology.num_routers
        if count <= 2:
            return None
        while True:
            router = self.rng.randint(0, count - 1)
            if router not in (packet.src_router, packet.dst_router):
                return router
