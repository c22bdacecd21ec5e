"""Online integrity checking and repair.

Two halves, matching how a damaged engine is found and healed:

* :mod:`repro.integrity.checker` — :func:`check_database` walks every
  index's structural invariants, diffs every indexed view (secondary
  indexes included) against a fresh recomputation, and checks every
  clean leaf against its durable image, returning an
  :class:`IntegrityReport` of typed
  :class:`Damage` findings.
* :mod:`repro.integrity.quarantine` — a damaged view is *quarantined*:
  reads transparently fall back to on-the-fly recomputation from the
  base tables (correct, slower) and incremental maintenance is paused,
  until an online rebuild re-materializes the view under locks and
  lifts the quarantine.

Entry points live on :class:`~repro.core.database.Database`:
``check_integrity()``, ``quarantine_view()``, ``rebuild_view()``.
See the "Recovery hardening" section of ``docs/ROBUSTNESS.md``.
"""

from repro.integrity.checker import (
    Damage,
    IntegrityReport,
    check_database,
    view_problems,
)
from repro.integrity.quarantine import QuarantineManager

__all__ = [
    "Damage",
    "IntegrityReport",
    "QuarantineManager",
    "check_database",
    "view_problems",
]
