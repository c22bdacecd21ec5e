"""Concurrency control: lock modes, manager, key-range planning, escrow.

The escrow (E) lock mode and the pending deltas it admits — kept on the
view row's own record by :mod:`repro.locking.escrow` — are the paper's
central mechanism: they let concurrent transactions update the same
aggregate-view row without conflicting, because increments and decrements
commute.
"""

from repro.locking.manager import LockManager, LockRequest, RequestStatus
from repro.locking.modes import (
    GapMode,
    LockMode,
    RangeMode,
    compatible,
    covers,
    gap_compatible,
    gap_supremum,
    mode_compatible,
    mode_supremum,
    supremum,
)

__all__ = [
    "GapMode",
    "LockManager",
    "LockMode",
    "LockRequest",
    "RangeMode",
    "RequestStatus",
    "compatible",
    "covers",
    "gap_compatible",
    "gap_supremum",
    "mode_compatible",
    "mode_supremum",
    "supremum",
]
