"""The pluggable engine API.

A *simulator engine* owns the cycle loop: it advances registered components
through the per-cycle phases and sequences read-only observers after them.
Two implementations ship with the toolkit:

* ``reference`` — :class:`repro.sim.engine.Simulator`, the straightforward
  per-object loop every other subsystem was validated against.
* ``fast`` — :class:`repro.sim.fastcore.FastSimulator`, an event-driven
  datapath that skips quiescent routers, idle control planes and fully
  drained stretches of simulated time while producing *bit-identical*
  results (it shares all authoritative state with the reference engine and
  falls back to the reference schedule for configurations outside its
  proven envelope).

Selection precedence (highest wins):

1. the ``ExperimentSpec.engine`` field (or an explicit ``engine=`` argument),
2. the CLI ``--engine`` flag (the CLI writes it into the spec),
3. the ``REPRO_ENGINE`` environment variable,
4. the default, ``reference``.

Engines satisfy the :class:`SimulatorEngine` protocol; code that needs a
loop should call :func:`create_engine` instead of constructing
``Simulator()`` directly.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator

#: Environment variable consulted when neither a spec nor the CLI names one.
ENGINE_ENV_VAR = "REPRO_ENGINE"
#: Engine used when nothing selects one explicitly.
DEFAULT_ENGINE = "reference"


@runtime_checkable
class SimulatorEngine(Protocol):
    """The contract every cycle-loop implementation satisfies.

    Attributes:
        name: Registry name of the implementation (``reference``/``fast``).
        cycle: The current cycle counter.
    """

    name: str
    cycle: int

    def register(self, component: object) -> None:
        """Add a component to the cycle loop (in registration order)."""

    def register_observer(self, observer: object) -> None:
        """Add a read-only observer sequenced after every component."""

    def step(self) -> None:
        """Simulate exactly one cycle."""

    def run(self, cycles: int) -> None:
        """Simulate the given number of cycles."""

    def run_until(self, predicate, max_cycles: int) -> bool:
        """Step until ``predicate()`` is true or ``max_cycles`` elapse."""


def _make_reference() -> Simulator:
    return Simulator()


def _make_fast():
    # Imported lazily: the fast core pulls in the network/core layers, which
    # must not become import-time dependencies of repro.sim.
    from repro.sim.fastcore import FastSimulator

    return FastSimulator()


_FACTORIES: Dict[str, Callable[[], "SimulatorEngine"]] = {
    "reference": _make_reference,
    "fast": _make_fast,
}


def available_engines() -> List[str]:
    """Registered engine names, ascending."""
    return sorted(_FACTORIES)


def resolve_engine_name(name: Optional[str] = None,
                        cli: Optional[str] = None,
                        env: Optional[str] = None) -> str:
    """Resolve an engine name through the selection precedence.

    Args:
        name: Spec-level selection (``ExperimentSpec.engine``); empty/None
            means unset.
        cli: CLI-flag selection; empty/None means unset.
        env: Environment override; defaults to ``$REPRO_ENGINE``.

    Returns:
        A validated engine name.

    Raises:
        ConfigurationError: If the winning name is not registered.
    """
    if env is None:
        env = os.environ.get(ENGINE_ENV_VAR) or None
    resolved = name or cli or env or DEFAULT_ENGINE
    if resolved not in _FACTORIES:
        raise ConfigurationError(
            f"unknown engine {resolved!r} "
            f"(available: {', '.join(available_engines())})",
            engine=resolved)
    return resolved


def create_engine(name: Optional[str] = None) -> "SimulatorEngine":
    """Instantiate an engine by name (resolving the selection precedence)."""
    return _FACTORIES[resolve_engine_name(name)]()
