"""High-level experiment drivers: the declarative :class:`ExperimentSpec`.

An :class:`ExperimentSpec` is the canonical description of *one* simulated
point: a Table III design (by registry name), a traffic pattern, an offered
load, the simulation windows, and the seeds — all plain data.  Unlike the
closure-based factories it replaces, a spec is **picklable**, so the same
object that drives a serial run can cross a process boundary unchanged
(``repro.harness.campaign``) and serialize into results files
(``repro.stats.results``).

``spec.build()`` produces the ``(network, traffic, injector)`` trio that
:func:`repro.stats.sweep.simulate_point` consumes; ``spec.run()`` does both
steps and is the one way to run a registry design.  A latency curve is
``spec.curve(rates)`` run through
:class:`~repro.harness.campaign.CampaignEngine`, which cuts it at
saturation as its points land, so every caller — CLI, benchmarks,
examples, parallel sweeps — measures through the identical code path.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, canonical_fault_spec, parse_fault_spec
from repro.harness.configs import (
    DRAGONFLY_SMALL,
    MESH_SIDE,
    build_network,
    get_design,
    resolve_design_name,
)
from repro.sim.engine_api import resolve_engine_name
from repro.sim.rng import DeterministicRng
from repro.stats.sweep import simulate_point
from repro.traffic.generator import PacketMix, SyntheticTraffic
from repro.traffic.patterns import make_pattern


def check_curve_rates(rates: List[float], **context) -> None:
    """Reject a curve whose rates are empty, descending or repeated.

    The saturation cut (:class:`~repro.stats.sweep.SaturationCursor`)
    takes a curve's first point as the zero-load latency.
    """
    if not rates or any(low >= high for low, high in zip(rates, rates[1:])):
        raise ConfigurationError(
            "a curve needs a non-empty, strictly ascending rate list",
            rates=rates, **context)


@dataclass(frozen=True)
class ExperimentSpec:
    """A picklable, declarative description of one simulation point.

    Attributes:
        design: Table III registry name (aliases accepted; stored
            canonically, so serialized specs never depend on alias tables).
        pattern: Traffic pattern name (``repro.traffic.patterns``).
        injection_rate: Offered load in flits/node/cycle.
        seed: Seed shared by the network, routing and traffic RNGs.
        mesh_side: Mesh dimension (used when the design is a mesh).
        dragonfly: ``(p, a, h)`` (used when the design is a dragonfly).
        tdd: Optional detection-threshold override.
        mix: Optional packet-length mix (defaults to the paper's 50/50
            1-flit + 5-flit mix inside :class:`SyntheticTraffic`).
        faults: Optional fault-injection spec *string* (docs/FAULTS.md),
            validated and canonicalized at construction; carrying the
            string (not the parsed schedule) keeps the spec picklable.
        fault_seed: Seed for the probabilistic fault realization.
        sim: Simulation windows for this point.
        verify: Attach the runtime invariant oracle (:mod:`repro.verify`)
            to the run, failing it on the first violated invariant.  Unset
            (False) falls through to ``REPRO_VERIFY`` (docs/VERIFY.md).
        telemetry: Attach the recording telemetry observer
            (:mod:`repro.telemetry`) with default configuration; its
            ``telemetry_*`` tallies land in ``SweepPoint.events``.  Unset
            (False) falls through to ``REPRO_TELEMETRY``
            (docs/TELEMETRY.md).
        engine: Simulator engine name (``reference``/``fast``) driving the
            cycle loop for this point; the empty string (the default)
            means "unset" and falls through to ``REPRO_ENGINE``, then
            ``reference`` — see :mod:`repro.sim.engine_api`.

    The CLI writes its ``--verify`` / ``--telemetry`` / ``--engine`` flags
    into these fields; every gate resolves by :func:`repro.config.env_gate`.

    Construction validates everything that can be validated without
    building a network, so a bad spec fails in the parent process before
    any worker is spawned.
    """

    design: str
    pattern: str = "uniform"
    injection_rate: float = 0.1
    seed: int = 1
    mesh_side: int = MESH_SIDE
    dragonfly: Tuple[int, int, int] = DRAGONFLY_SMALL
    tdd: Optional[int] = None
    mix: Optional[PacketMix] = None
    faults: Optional[str] = None
    fault_seed: int = 0
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    verify: bool = False
    telemetry: bool = False
    engine: str = ""

    def __post_init__(self) -> None:
        if self.engine:
            # Validate eagerly so a bad name fails in the parent process;
            # an unset engine stays "" and resolves at run time.
            object.__setattr__(self, "engine",
                               resolve_engine_name(self.engine))
        object.__setattr__(self, "design", resolve_design_name(self.design))
        object.__setattr__(self, "dragonfly", tuple(self.dragonfly))
        object.__setattr__(self, "faults",
                           canonical_fault_spec(self.faults))
        if self.injection_rate < 0:
            raise ConfigurationError("injection_rate must be >= 0",
                                     rate=self.injection_rate)
        if self.seed < 0 or self.fault_seed < 0:
            raise ConfigurationError("seeds must be >= 0", seed=self.seed,
                                     fault_seed=self.fault_seed)
        if self.mesh_side < 2:
            raise ConfigurationError("mesh_side must be >= 2",
                                     mesh_side=self.mesh_side)
        if len(self.dragonfly) != 3 or min(self.dragonfly) < 1:
            raise ConfigurationError(
                "dragonfly must be three integers (p, a, h), all >= 1",
                dragonfly=self.dragonfly)
        if self.tdd is not None and self.tdd < 1:
            raise ConfigurationError("tdd must be >= 1", tdd=self.tdd)

    # ------------------------------------------------------------------
    # Building and running
    # ------------------------------------------------------------------
    def build(self):
        """Instantiate the ``(network, traffic, injector)`` trio.

        ``injector`` is ``None`` for fault-free specs (no component is
        registered, so clean runs pay zero overhead).  The trio is exactly
        what :func:`repro.stats.sweep.simulate_point` consumes.
        """
        design = get_design(self.design)
        network = build_network(design, seed=self.seed,
                                mesh_side=self.mesh_side,
                                dragonfly=self.dragonfly, tdd=self.tdd)
        cols = self.mesh_side if design.topology == "mesh" else None
        pattern = make_pattern(self.pattern, network.topology.num_nodes,
                               cols)
        stop_at = self.sim.warmup_cycles + self.sim.measure_cycles
        traffic = SyntheticTraffic(network, pattern, self.injection_rate,
                                   mix=self.mix, seed=self.seed,
                                   stop_at=stop_at)
        injector = None
        if self.faults:
            injector = FaultInjector(parse_fault_spec(self.faults),
                                     seed=self.fault_seed)
        return network, traffic, injector

    def run(self, raise_on_wedge: bool = False, profiler=None):
        """Simulate this point; returns ``(network, SweepPoint)``.

        ``profiler`` optionally attaches a
        :class:`repro.sim.profile.PhaseProfiler` to the engine and records
        the seconds :meth:`build` took as its ``build`` stage; profiling
        never changes the simulated point (docs/OBSERVE.md).
        """
        started = time.perf_counter()
        network, traffic, injector = self.build()
        if profiler is not None:
            profiler.record_setup("build", time.perf_counter() - started)
        point = simulate_point(network, traffic, self.sim,
                               injection_rate=self.injection_rate,
                               injector=injector,
                               raise_on_wedge=raise_on_wedge,
                               verify=self.verify,
                               telemetry=self.telemetry,
                               engine=self.engine or None,
                               profiler=profiler)
        return network, point

    def effective_engine(self) -> str:
        """The engine name this spec runs under, after precedence."""
        return resolve_engine_name(self.engine or None)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_rate(self, rate: float) -> "ExperimentSpec":
        """The same experiment at a different offered load."""
        return replace(self, injection_rate=rate)

    def with_seed(self, seed: int) -> "ExperimentSpec":
        """The same experiment under a different seed."""
        return replace(self, seed=seed)

    def forked(self, label: str) -> "ExperimentSpec":
        """A replicate with an independent seed derived from ``label``.

        Uses the same stable digest as :meth:`DeterministicRng.fork`, so
        the derived seed depends only on ``(seed, label)`` — reproducible
        across processes and runs, never on enumeration order.
        """
        child = DeterministicRng(self.seed).fork(str(label)).seed
        return replace(self, seed=child)

    def curve(self, rates: List[float]) -> List["ExperimentSpec"]:
        """This experiment swept over strictly ascending offered loads
        (:func:`check_curve_rates`)."""
        rates = list(rates)
        check_curve_rates(rates)
        return [self.with_rate(rate) for rate in rates]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def content_key(self) -> str:
        """Stable content-address of this spec (16 hex chars).

        The digest covers the canonical JSON form of :meth:`to_dict`, so
        two specs describing the same experiment hash identically across
        processes and sessions — this is the key the campaign journal
        (:mod:`repro.harness.campaign`) files completed results under.
        """
        return self.content_and_curve_key()[0]

    def content_and_curve_key(self) -> Tuple[str, str]:
        """``(content_key(), curve key)`` from one serialization: the curve
        key is the canonical JSON without ``injection_rate``, shared by the
        specs of one latency curve."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        key = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        # A number holds no comma, and injection_rate is never the last
        # key in sorted order, so the rate ends at the next comma.
        head, _, tail = payload.partition('"injection_rate":')
        return key, head + tail[tail.index(",") + 1:]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict; exact inverse of :meth:`from_dict`."""
        data = {
            "design": self.design,
            "pattern": self.pattern,
            "injection_rate": self.injection_rate,
            "seed": self.seed,
            "mesh_side": self.mesh_side,
            "dragonfly": list(self.dragonfly),
            "tdd": self.tdd,
            "mix": (None if self.mix is None else
                    {"lengths": list(self.mix.lengths),
                     "weights": list(self.mix.weights)}),
            "faults": self.faults,
            "fault_seed": self.fault_seed,
            "sim": self.sim.to_dict(),
            "verify": self.verify,
            "telemetry": self.telemetry,
        }
        # Emitted only when set: engines produce bit-identical results, so
        # an unset engine must hash like a pre-engine-field spec (existing
        # campaign journals stay resumable).
        if self.engine:
            data["engine"] = self.engine
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (revalidates)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ExperimentSpec field(s) {sorted(unknown)}",
                known=sorted(known))
        kwargs = dict(data)
        if kwargs.get("mix") is not None:
            mix = kwargs["mix"]
            kwargs["mix"] = PacketMix(lengths=tuple(mix["lengths"]),
                                      weights=tuple(mix["weights"]))
        if "sim" in kwargs:
            kwargs["sim"] = SimulationConfig.from_dict(kwargs["sim"])
        if "dragonfly" in kwargs:
            kwargs["dragonfly"] = tuple(kwargs["dragonfly"])
        return cls(**kwargs)
