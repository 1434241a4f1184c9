"""Packet-trace recording and replay.

Traces decouple workload generation from simulation: the same packet
sequence can be replayed against different router configurations (the
methodology behind apples-to-apples comparisons such as Fig. 8a), and they
make failures reproducible in tests.

The on-disk format is one JSON object per line.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, List

from repro.errors import ConfigurationError
from repro.network.packet import Packet


@dataclass(frozen=True)
class TraceRecord:
    """One packet-creation event."""

    cycle: int
    src: int
    dst: int
    length: int
    vnet: int = 0
    reply_length: int = 0


def save_trace(records: Iterable[TraceRecord], path: str) -> None:
    """Write a trace as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(asdict(record)) + "\n")


def load_trace(path: str) -> List[TraceRecord]:
    """Read a trace written by :func:`save_trace`."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(TraceRecord(**json.loads(line)))
    return records


def record_from_traffic(network, source, cycles: int) -> List[TraceRecord]:
    """Capture the creation events a traffic source would produce.

    Runs the source against the network's NIC queues for ``cycles`` cycles
    *without simulating the network* and drains the queues into trace
    records.  Useful for building reusable workloads from the synthetic
    generators.
    """
    records = []
    for cycle in range(cycles):
        source.phase_inject(cycle)
        for nic in network.nics:
            for queue in nic.queues:
                while queue:
                    packet = queue.popleft()
                    records.append(TraceRecord(
                        cycle=cycle, src=packet.src_node, dst=packet.dst_node,
                        length=packet.length, vnet=packet.vnet,
                        reply_length=packet.reply_length))
    return records


class TraceTraffic:
    """Simulator component replaying a recorded trace."""

    #: Profiler part of this component's ``inject`` time.
    profile_part = "traffic"

    def __init__(self, network, records: List[TraceRecord],
                 repeat: bool = False) -> None:
        self.network = network
        self.records = sorted(records, key=lambda r: r.cycle)
        self.repeat = repeat
        self._cursor = 0
        self._cycle_offset = 0
        if any(r.src >= network.topology.num_nodes
               or r.dst >= network.topology.num_nodes for r in self.records):
            raise ConfigurationError("trace references nodes beyond topology")

    def phase_inject(self, cycle: int) -> None:
        records = self.records
        if not records:
            return
        while self._cursor < len(records):
            record = records[self._cursor]
            when = record.cycle + self._cycle_offset
            if when > cycle:
                return
            self._emit(record, cycle)
            self._cursor += 1
        if self.repeat and self._cursor >= len(records):
            self._cursor = 0
            self._cycle_offset = cycle + 1

    def _emit(self, record: TraceRecord, cycle: int) -> None:
        network = self.network
        packet = Packet(
            src_node=record.src,
            dst_node=record.dst,
            src_router=network.topology.router_of_node(record.src),
            dst_router=network.topology.router_of_node(record.dst),
            length=record.length,
            vnet=record.vnet,
            create_cycle=cycle,
        )
        packet.reply_length = record.reply_length
        network.stats.record_creation(packet, cycle)
        network.nics[record.src].enqueue(packet)
