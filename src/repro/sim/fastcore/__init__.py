"""Event-driven fast datapath (the ``fast`` engine).

See :mod:`repro.sim.fastcore.simulator` for the design contract: the fast
engine shares every authoritative object with the reference engine and only
skips work it can prove the reference loop would not do.
"""

from repro.sim.fastcore.simulator import FastSimulator, fallback_reason

__all__ = ["FastSimulator", "fallback_reason"]
