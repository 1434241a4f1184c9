"""Configuration dataclasses shared across the simulator.

Two configuration objects parameterize every experiment:

* :class:`NetworkConfig` — the datapath: virtual channels, virtual networks,
  buffer depth, router/link latencies, packet sizes.
* :class:`SpinParams` — the SPIN recovery framework of the paper (Sec. IV):
  the deadlock-detection threshold ``tdd``, the rotating-priority epoch, and
  implementation knobs called out in DESIGN.md for ablation.

Both objects validate themselves on construction so an inconsistent
experiment fails loudly before any cycles are simulated.

:func:`env_gate` is the one rule every ``REPRO_*`` environment gate
(``REPRO_VERIFY``, ``REPRO_TELEMETRY``, ``REPRO_ENGINE``, ``REPRO_PROFILE``)
is resolved by.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ConfigurationError

#: Length (in flits) of a control packet in the paper's synthetic traffic mix.
CONTROL_PACKET_FLITS = 1
#: Length (in flits) of a data packet in the paper's synthetic traffic mix.
DATA_PACKET_FLITS = 5
#: Most VCs one input port may hold (the arbitration-key stride).
MAX_VCS_PER_PORT = 64
#: Values (stripped, lowercased) that switch an environment gate off.
ENV_OFF_VALUES = frozenset({"", "0", "off", "false", "no"})
#: Words that switch a plain on/off gate on (``REPRO_PROFILE``).
ENV_ON_VALUES: Mapping[str, object] = {
    "1": True, "on": True, "true": True, "yes": True}


def env_gate(variable: str, accepted: Mapping[str, object] = ENV_ON_VALUES,
             integer: bool = False) -> Optional[object]:
    """Resolve one environment gate: ``None`` when off, else its value.

    The variable is read stripped and lowercased.  Unset or an off word
    (:data:`ENV_OFF_VALUES`) gives ``None``; an accepted word gives the
    value ``accepted`` maps it to; with ``integer``, a whole number >= 1
    is returned as an ``int``.  Anything else raises
    :class:`ConfigurationError` naming the variable and every accepted
    value, so a typo never runs ungated.

    Precedence is the caller's: an explicit field or argument (the CLI
    writes its flags into the spec) wins and the variable is not read.
    """
    text = os.environ.get(variable, "").strip().lower()
    if text in ENV_OFF_VALUES:
        return None
    if text in accepted:
        return accepted[text]
    if integer and text.isdecimal() and int(text) >= 1:
        return int(text)
    words = sorted(accepted) + (["an integer >= 1"] if integer else [])
    raise ConfigurationError(
        f"{variable}={text!r} is not recognized; accepted: "
        f"{', '.join(words)}, or off: "
        f"{', '.join(sorted(ENV_OFF_VALUES - {''}))}")


@dataclass
class NetworkConfig:
    """Datapath parameters of the simulated network.

    The simulator models virtual-cut-through (VCT) switching: each virtual
    channel buffer is deep enough to hold one maximum-size packet and is
    allocated to at most one packet at a time.  This matches the VCT
    implementation the paper describes in Sec. IV-B.

    Attributes:
        vcs_per_vnet: Virtual channels per virtual network at each input
            port.  ``1`` gives the paper's headline "truly one-VC" designs.
        num_vnets: Number of virtual networks (message classes).  Synthetic
            traffic uses 1; the PARSEC proxy uses 3 as in the paper.
        buffer_depth: Flit capacity of one VC buffer.  Must be at least
            ``max_packet_length`` for VCT.
        router_latency: Pipeline latency of a router in cycles (the paper
            evaluates single-cycle routers).
        link_latency: Default link traversal latency in cycles; individual
            links may override it (dragonfly global links are 3 cycles).
        max_packet_length: Largest packet, in flits, that the traffic may
            inject.

    Each NIC has one ejection port with unbounded acceptance — the paper's
    NICs "eject flits without any stalls".
    """

    vcs_per_vnet: int = 1
    num_vnets: int = 1
    buffer_depth: int = DATA_PACKET_FLITS
    router_latency: int = 1
    link_latency: int = 1
    max_packet_length: int = DATA_PACKET_FLITS

    def __post_init__(self) -> None:
        if self.vcs_per_vnet < 1:
            raise ConfigurationError("vcs_per_vnet must be >= 1")
        if self.num_vnets < 1:
            raise ConfigurationError("num_vnets must be >= 1")
        if self.total_vcs > MAX_VCS_PER_PORT:
            # Round-robin arbitration keys are inport * 64 + VC index: a
            # 65th VC would alias the next port's first one.
            raise ConfigurationError(
                f"num_vnets x vcs_per_vnet must be <= {MAX_VCS_PER_PORT} "
                f"(got {self.num_vnets} x {self.vcs_per_vnet})")
        if self.router_latency < 1 or self.link_latency < 1:
            raise ConfigurationError("router and link latency must be >= 1")
        if self.max_packet_length < 1:
            raise ConfigurationError("max_packet_length must be >= 1")
        if self.buffer_depth < self.max_packet_length:
            raise ConfigurationError(
                "virtual-cut-through requires buffer_depth >= max_packet_length "
                f"(got depth={self.buffer_depth}, max packet={self.max_packet_length})"
            )

    @property
    def total_vcs(self) -> int:
        """Total VCs per input port across all virtual networks."""
        return self.vcs_per_vnet * self.num_vnets


@dataclass
class SpinParams:
    """Parameters of the SPIN deadlock-recovery framework (paper Sec. IV).

    ``Network(spin=None)`` runs without SPIN.  The SM-loss watchdog
    constants live in :mod:`repro.core.controller` (docs/FAULTS.md).

    Attributes:
        tdd: Deadlock-detection threshold in cycles.  The paper's default is
            128; smaller values are convenient for unit tests.
        probe_move_enabled: Enables the probe_move optimization for deadlocks
            that need multiple spins (Sec. IV-B4).  Exposed for ablation.
        strict_priority_drop: If true, a probe is dropped at *any* router
            whose dynamic priority exceeds its sender's (the literal reading
            of Sec. IV-C1).  The default drops probes only on output-link
            contention, matching the paper's "common case" discussion.  See
            DESIGN.md substitution note 5.
        max_spins: Safety valve for simulation only — abort the run if one
            deadlock needs more than this many spins (the theory bounds the
            number of spins, so hitting this indicates a bug, not a policy).
    """

    tdd: int = 128
    probe_move_enabled: bool = True
    strict_priority_drop: bool = False
    max_spins: int = 10_000

    def __post_init__(self) -> None:
        if self.tdd < 1:
            raise ConfigurationError("tdd must be >= 1")
        if self.max_spins < 1:
            raise ConfigurationError("max_spins must be >= 1")

    @property
    def epoch_length(self) -> int:
        """Length of one rotating-priority epoch: ``4 x tdd`` cycles, the
        value Sec. IV-C1 chooses."""
        return 4 * self.tdd


@dataclass
class SimulationConfig:
    """Run-length and measurement-window parameters for one simulation.

    Attributes:
        warmup_cycles: Cycles simulated before statistics collection starts.
        measure_cycles: Cycles during which injected packets are tracked for
            latency/throughput statistics.
        drain_cycles: Extra cycles after the measurement window to let
            measured packets reach their destinations.
        seed: Seed for the simulation's deterministic RNG.
        deadlock_abort_cycles: If no flit moves anywhere in the network for
            this many consecutive cycles, the run is declared wedged and
            stopped early (used to detect unrecovered deadlocks in baseline
            designs).  ``0`` disables the check.
        wedge_poll_interval: How many cycles the measure/drain loop
            simulates between wedge checks.  Smaller values detect a wedge
            sooner (tighter abort latency) at the cost of more Python-level
            loop overhead; the former hardcoded value was 200.
    """

    warmup_cycles: int = 1_000
    measure_cycles: int = 5_000
    drain_cycles: int = 2_000
    seed: int = 1
    deadlock_abort_cycles: int = 0
    wedge_poll_interval: int = 200

    def __post_init__(self) -> None:
        if min(self.warmup_cycles, self.measure_cycles, self.drain_cycles) < 0:
            raise ConfigurationError("cycle counts must be non-negative")
        if self.deadlock_abort_cycles < 0:
            raise ConfigurationError(
                "deadlock_abort_cycles must be >= 0 (0 disables the check)",
                deadlock_abort_cycles=self.deadlock_abort_cycles)
        if self.wedge_poll_interval < 1:
            raise ConfigurationError("wedge_poll_interval must be >= 1")

    @property
    def total_cycles(self) -> int:
        """Total number of cycles one run simulates."""
        return self.warmup_cycles + self.measure_cycles + self.drain_cycles

    def to_dict(self) -> dict:
        """JSON-safe dict; exact inverse of :meth:`from_dict`."""
        return {
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "drain_cycles": self.drain_cycles,
            "seed": self.seed,
            "deadlock_abort_cycles": self.deadlock_abort_cycles,
            "wedge_poll_interval": self.wedge_poll_interval,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Rebuild from :meth:`to_dict` output (validates on construction)."""
        known = {
            "warmup_cycles", "measure_cycles", "drain_cycles", "seed",
            "deadlock_abort_cycles", "wedge_poll_interval",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown SimulationConfig field(s) {sorted(unknown)}",
                known=sorted(known))
        return cls(**data)
