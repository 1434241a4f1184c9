"""Open-loop synthetic traffic generation.

Bernoulli arrivals per terminal at a configured *flit* injection rate (the
paper's unit: flits/node/cycle), with the paper's packet mix of 1-flit
control and 5-flit data packets for synthetic experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import CONTROL_PACKET_FLITS, DATA_PACKET_FLITS
from repro.errors import ConfigurationError
from repro.network.packet import Packet
from repro.sim.rng import DeterministicRng
from repro.traffic.patterns import TrafficPattern


@dataclass(frozen=True)
class PacketMix:
    """Distribution over packet lengths.

    Attributes:
        lengths: Candidate packet lengths in flits.
        weights: Matching selection weights (need not be normalized).
    """

    lengths: Tuple[int, ...] = (CONTROL_PACKET_FLITS, DATA_PACKET_FLITS)
    weights: Tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self) -> None:
        if len(self.lengths) != len(self.weights) or not self.lengths:
            raise ConfigurationError("lengths and weights must align")
        if min(self.weights) < 0 or sum(self.weights) <= 0:
            raise ConfigurationError("weights must be non-negative, not all 0")

    @property
    def mean_length(self) -> float:
        """Expected packet length in flits."""
        total = sum(self.weights)
        return sum(l * w for l, w in zip(self.lengths, self.weights)) / total

    def sample(self, rng: DeterministicRng) -> int:
        """Draw a packet length."""
        total = sum(self.weights)
        point = rng.random() * total
        for length, weight in zip(self.lengths, self.weights):
            point -= weight
            if point < 0:
                return length
        return self.lengths[-1]

    @staticmethod
    def single(length: int) -> "PacketMix":
        """A mix of one fixed length (e.g. Fig. 3's 1-flit packets)."""
        return PacketMix(lengths=(length,), weights=(1.0,))


class SyntheticTraffic:
    """Simulator component injecting pattern traffic at a fixed rate.

    Args:
        network: Target network.
        pattern: Destination map.
        injection_rate: Offered load in flits/node/cycle.
        mix: Packet-length distribution.
        seed: Traffic RNG seed (independent of the network RNG).
        vnet: Virtual network for generated packets.
        stop_at: Cycle to stop generating (start of the drain phase);
            None generates forever.
    """

    #: Profiler part of this component's ``inject`` time.
    profile_part = "traffic"

    def __init__(self, network, pattern: TrafficPattern,
                 injection_rate: float, mix: Optional[PacketMix] = None,
                 seed: int = 1, vnet: int = 0,
                 stop_at: Optional[int] = None) -> None:
        if injection_rate < 0:
            raise ConfigurationError("injection rate must be >= 0")
        if pattern.num_nodes != network.topology.num_nodes:
            raise ConfigurationError(
                f"pattern sized for {pattern.num_nodes} nodes but the network "
                f"has {network.topology.num_nodes}")
        self.network = network
        self.pattern = pattern
        self.injection_rate = injection_rate
        self.mix = mix or PacketMix()
        self.vnet = vnet
        self.stop_at = stop_at
        self.rng = DeterministicRng(seed).fork("traffic")
        #: Per-cycle packet-generation probability per node.
        self.packet_probability = injection_rate / self.mix.mean_length

    def phase_inject(self, cycle: int) -> None:
        if self.stop_at is not None and cycle >= self.stop_at:
            return
        if self.packet_probability <= 0:
            return
        network = self.network
        rng = self.rng
        probability = self.packet_probability
        # Hot loop: one uniform draw per NIC per cycle.  Bind the underlying
        # generator's method once; the draw sequence is unchanged.
        random = rng._random.random
        for nic in network.nics:
            if random() >= probability:
                continue
            dst = self.pattern.dest(nic.node, rng)
            if dst is None:
                continue
            packet = Packet(
                src_node=nic.node,
                dst_node=dst,
                src_router=nic.router_id,
                dst_router=network.topology.router_of_node(dst),
                length=self.mix.sample(rng),
                vnet=self.vnet,
                create_cycle=cycle,
            )
            network.stats.record_creation(packet, cycle)
            nic.enqueue(packet)
