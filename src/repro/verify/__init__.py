"""Runtime verification for the SPIN network core.

Three layers (see docs/VERIFY.md for the full catalog and usage):

* :mod:`repro.verify.invariants` — the invariant catalog: stateless
  per-snapshot checkers, each yielding
  :class:`~repro.errors.InvariantViolation` tagged with its family name.
* :mod:`repro.verify.oracle` — :class:`InvariantOracle`, the simulator
  observer that runs the catalog every cycle plus the history-dependent
  checks (conservation, teleport, FSM legality, deadlock persistence).
  Zero-cost when not attached; enabled globally via ``REPRO_VERIFY``.
* :mod:`repro.verify.trace` / :mod:`repro.verify.golden` — golden-trace
  digests and the pinned regression scenarios.
* :mod:`repro.verify.differential` — the cross-theory conformance runner
  (``repro-sim verify``).
"""

from repro.verify.invariants import INVARIANTS
from repro.verify.oracle import InvariantOracle, OracleConfig
from repro.verify.trace import TraceRecorder, divergence_report

__all__ = [
    "INVARIANTS",
    "InvariantOracle",
    "OracleConfig",
    "TraceRecorder",
    "divergence_report",
]
