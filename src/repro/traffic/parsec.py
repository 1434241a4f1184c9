"""PARSEC proxy workloads (substitution for the paper's full-system runs).

The paper drives Fig. 8(a) with PARSEC benchmarks over a 3-vnet directory
coherence protocol in gem5.  Full-system simulation is out of scope here, so
each benchmark is modeled by the traffic it presents to the NoC — which is
what determines network EDP:

* a low average injection rate (network requests are filtered by L1/L2;
  the paper observes real applications inject >=10x below deadlocking
  rates),
* a read/write mix (reads: 1-flit request answered by a 5-flit data reply on
  a separate vnet; writes: 5-flit request, 1-flit ack),
* bursty on/off arrival phases (Markov-modulated Bernoulli),
* a directory-hotspot fraction (a subset of nodes serves as directories).

Per-benchmark parameters are chosen to span the published NoC
characterization of PARSEC (canneal/streamcluster network-heavy, swaptions/
blackscholes light).  Fig. 8(a) needs only *relative* EDP between two router
configurations under identical application-level load, which this proxy
exercises faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config import CONTROL_PACKET_FLITS, DATA_PACKET_FLITS
from repro.errors import ConfigurationError
from repro.network.packet import Packet
from repro.sim.rng import DeterministicRng


@dataclass(frozen=True)
class ParsecProfile:
    """Network-level traffic profile of one PARSEC benchmark.

    Attributes:
        name: Benchmark name.
        rate: Mean injection rate in flits/node/cycle (long-run average).
        read_fraction: Fraction of transactions that are reads.
        burst_on: Probability an idle node enters a bursty phase each cycle.
        burst_off: Probability a bursting node goes idle each cycle.
        burst_multiplier: Rate multiplier while bursting.
        hotspot_fraction: Fraction of traffic addressed to directory nodes.
    """

    name: str
    rate: float
    read_fraction: float
    burst_on: float
    burst_off: float
    burst_multiplier: float
    hotspot_fraction: float


#: Traffic profiles spanning the PARSEC suite's published NoC behaviour.
PARSEC_PROFILES: Dict[str, ParsecProfile] = {
    profile.name: profile
    for profile in (
        ParsecProfile("blackscholes", 0.004, 0.80, 0.002, 0.05, 4.0, 0.10),
        ParsecProfile("bodytrack",    0.010, 0.70, 0.004, 0.04, 5.0, 0.15),
        ParsecProfile("canneal",      0.030, 0.60, 0.010, 0.02, 6.0, 0.25),
        ParsecProfile("dedup",        0.018, 0.65, 0.006, 0.03, 5.0, 0.20),
        ParsecProfile("ferret",       0.020, 0.65, 0.006, 0.03, 5.0, 0.20),
        ParsecProfile("fluidanimate", 0.012, 0.70, 0.004, 0.04, 4.0, 0.15),
        ParsecProfile("streamcluster", 0.035, 0.55, 0.012, 0.02, 6.0, 0.25),
        ParsecProfile("swaptions",    0.003, 0.85, 0.002, 0.06, 3.0, 0.10),
        ParsecProfile("vips",         0.015, 0.70, 0.005, 0.03, 5.0, 0.15),
        ParsecProfile("x264",         0.022, 0.60, 0.008, 0.03, 5.0, 0.20),
    )
}


class ParsecWorkload:
    """Simulator component replaying a PARSEC traffic profile.

    Requests go out on vnet 0 and solicit replies, which the destination NIC
    injects on the reply vnet — a closed request/response loop like the
    directory protocol the paper simulates (3 vnets avoid protocol
    deadlocks; see NetworkConfig.num_vnets).
    """

    #: Profiler part of this component's ``inject`` time.
    profile_part = "traffic"

    def __init__(self, network, profile: ParsecProfile, seed: int = 1,
                 stop_at=None) -> None:
        if network.config.num_vnets < 2:
            raise ConfigurationError(
                "PARSEC proxy needs >= 2 vnets (requests + replies)")
        self.network = network
        self.profile = profile
        self.stop_at = stop_at
        self.rng = DeterministicRng(seed).fork(f"parsec:{profile.name}")
        num_nodes = network.topology.num_nodes
        #: Directory nodes receiving the hotspot share of requests.
        self.directories: List[int] = [
            node for node in range(num_nodes)
            if node % max(1, num_nodes // 8) == 0
        ]
        self._bursting = [False] * num_nodes
        # Requests average (1 + reply) or (5 + ack) flits per transaction;
        # scale the per-cycle transaction probability to hit `rate`.
        flits_per_txn = (
            profile.read_fraction * (CONTROL_PACKET_FLITS + DATA_PACKET_FLITS)
            + (1 - profile.read_fraction) * (DATA_PACKET_FLITS + CONTROL_PACKET_FLITS)
        )
        duty = profile.burst_on / (profile.burst_on + profile.burst_off)
        effective_multiplier = (1 - duty) + duty * profile.burst_multiplier
        self._base_probability = profile.rate / (
            flits_per_txn * effective_multiplier)

    def phase_inject(self, cycle: int) -> None:
        if self.stop_at is not None and cycle >= self.stop_at:
            return
        rng = self.rng
        profile = self.profile
        network = self.network
        for nic in network.nics:
            node = nic.node
            if self._bursting[node]:
                if rng.bernoulli(profile.burst_off):
                    self._bursting[node] = False
            elif rng.bernoulli(profile.burst_on):
                self._bursting[node] = True
            probability = self._base_probability
            if self._bursting[node]:
                probability *= profile.burst_multiplier
            if not rng.bernoulli(probability):
                continue
            dst = self._pick_destination(node, rng)
            if dst is None:
                continue
            is_read = rng.bernoulli(profile.read_fraction)
            length = CONTROL_PACKET_FLITS if is_read else DATA_PACKET_FLITS
            packet = Packet(
                src_node=node,
                dst_node=dst,
                src_router=nic.router_id,
                dst_router=network.topology.router_of_node(dst),
                length=length,
                vnet=0,
                create_cycle=cycle,
            )
            packet.reply_length = (
                DATA_PACKET_FLITS if is_read else CONTROL_PACKET_FLITS)
            network.stats.record_creation(packet, cycle)
            nic.enqueue(packet)

    def _pick_destination(self, src: int, rng: DeterministicRng):
        if rng.bernoulli(self.profile.hotspot_fraction):
            dst = rng.choice(self.directories)
        else:
            dst = rng.randint(0, self.network.topology.num_nodes - 1)
        return None if dst == src else dst
