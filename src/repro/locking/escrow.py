"""Escrow state on the record: commutative counter updates.

The E lock mode (:mod:`repro.locking.modes`) says *who may* change a
group's counters concurrently; this module keeps *what they did* on the
group's own record, which may be a ghost. The committed counters are the
row; ``record.escrow`` is ``None`` or an :class:`Escrow` holding the view
and each in-flight transaction's pending deltas, by position over
``view.counter_columns()``. The escrow test (O'Neil 1986) admits a delta
only if its counter stays in bounds under *every* outcome of the in-flight
transactions. Commit folds a transaction's deltas into the row, abort
drops them (logical undo); the slot goes with the last of them.
"""

from repro.common import EscrowViolationError


class Escrow:
    """A record's escrow slot: the view, its counter columns and
    ``txn_id -> [delta per column]``."""

    __slots__ = ("view", "columns", "pending")

    def __init__(self, view):
        self.view = view
        self.columns = view.counter_columns()
        self.pending = {}


def reserve(record, view, txn_id, deltas):
    """Add ``deltas`` (``{column: amount}``) to ``txn_id``'s pending deltas
    if every column passes the escrow test; else raise, changing nothing."""
    slot = record.escrow or Escrow(view)
    mine = list(slot.pending.get(txn_id) or [0] * len(slot.columns))
    for column, delta in deltas.items():
        if delta == 0:
            continue
        i = slot.columns.index(column)
        mine[i] += delta
        bound = view.bounds_for(column)[delta > 0]  # low gates decrements
        if bound is None:
            continue
        # the worst case on delta's side: every delta of its sign commits
        held = [d[i] for t, d in slot.pending.items() if t != txn_id]
        side = [d for d in (*held, mine[i]) if (d > 0) == (delta > 0)]
        worst = record.current_row[column] + sum(side)
        if (worst - bound) * delta > 0:
            raise EscrowViolationError(txn_id, detail=(
                f"delta {delta} could drive value to {worst}, "
                f"{'above' if delta > 0 else 'below'} bound {bound}"))
    if any(mine) or txn_id in slot.pending:
        slot.pending[txn_id] = mine
        record.escrow = slot


def unreserve(record, txn_id, deltas):
    """Take back ``deltas`` of ``txn_id``'s (a partial rollback): no test."""
    mine = record.escrow and record.escrow.pending.get(txn_id)
    for column, delta in deltas.items() if mine else ():
        mine[record.escrow.columns.index(column)] -= delta


def abort(record, txn_id):
    """Discard ``txn_id``'s pending deltas."""
    slot = record.escrow
    if slot is not None and slot.pending.pop(txn_id, None):
        record.escrow = slot if slot.pending else None


def commit(record, txn_id):
    """Fold ``txn_id``'s deltas into the row; its view if it held any."""
    slot = record.escrow
    mine = slot and slot.pending.pop(txn_id, None)
    if not mine:
        return None
    record.current_row = _plus(record.current_row, slot.columns, mine)
    record.escrow = slot if slot.pending else None
    return slot.view


def exact_row(record, txn_id):
    """The row as ``txn_id`` alone sees it: committed plus its own deltas."""
    mine = record.escrow and record.escrow.pending.get(txn_id)
    if not mine:
        return record.current_row
    return _plus(record.current_row, record.escrow.columns, mine)


def inclusive_row(record):
    """The row plus *every* pending delta: what it holds if all commit."""
    slot = record.escrow
    if slot is None:
        return record.current_row
    sums = map(sum, zip(*slot.pending.values()))
    return _plus(record.current_row, slot.columns, sums)


def _plus(row, columns, deltas):
    """``row`` with ``deltas`` added to ``columns``, position by position."""
    changes = {c: row[c] + d for c, d in zip(columns, deltas) if d}
    return row.replace(**changes) if changes else row
