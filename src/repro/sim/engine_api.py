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

Selection precedence (highest wins), the rule of every environment gate
(:func:`repro.config.env_gate`):

1. the ``ExperimentSpec.engine`` field or an explicit ``engine=`` argument
   (the CLI writes its ``--engine`` flag into the spec),
2. the ``REPRO_ENGINE`` environment variable,
3. the default, ``reference`` (also when the variable holds an off word).

Engines satisfy the :class:`SimulatorEngine` protocol; code that needs a
loop should call :func:`create_engine` instead of constructing
``Simulator()`` directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable

from repro.config import env_gate
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


#: ``REPRO_ENGINE`` words: every registered engine name.
_ENGINE_WORDS = {name: name for name in _FACTORIES}


def resolve_engine_name(name: Optional[str] = None) -> str:
    """Resolve an engine name through the selection precedence.

    ``name`` is the explicit selection (``ExperimentSpec.engine``);
    empty/None means unset and falls through to ``REPRO_ENGINE``, then
    the default.

    Raises:
        ConfigurationError: If the winning name is not registered.
    """
    resolved = (name or env_gate(ENGINE_ENV_VAR, _ENGINE_WORDS)
                or DEFAULT_ENGINE)
    if resolved not in _FACTORIES:
        raise ConfigurationError(
            f"unknown engine {resolved!r} "
            f"(available: {', '.join(available_engines())})",
            engine=resolved)
    return resolved


def create_engine(name: Optional[str] = None) -> "SimulatorEngine":
    """Instantiate an engine by name (resolving the selection precedence)."""
    return _FACTORIES[resolve_engine_name(name)]()
