"""The logged row writes: put, ghost, patch, erase.

Every change a transaction makes to a row of an index — a base table, a
view index, an auxiliary or a secondary index — is one of four
primitives. Each appends the one WAL record whose ``before_entry`` /
``after_entry`` are the slot before and after, assigns the slot as of
that record's LSN through the index's one mutator
(:meth:`~repro.storage.index.Index.set_entry`, which stamps the row and
dirties its leaf), remembers the record for version stamping at commit,
and keeps the ghost cleaner's work list in step. Nothing is packed: a
leaf's bytes are produced when the buffer pool writes it back. They take
no locks: the caller's :class:`~repro.views.actions.Action` plan (or
table lock) was acquired first — lock first, mutate second.

These are the only constructors of ``InsertRecord`` / ``ReviveRecord``
/ ``GhostRecord`` / ``UpdateRecord`` / ``CleanupRecord`` outside
``repro/wal/`` and, the recovery targets apart, the only callers of
``set_entry`` (the ``logged-write`` lint rule), so a write that forgets
the log, the version stamp or the cleaner cannot be spelled.
"""

from repro.common import StorageError
from repro.wal.records import (
    CleanupRecord,
    GhostRecord,
    InsertRecord,
    ReviveRecord,
    UpdateRecord,
)


def put(db, txn, index, key, row):
    """Insert ``row`` at ``key``, reviving a ghost that occupies the key
    (a live occupant raises :class:`~repro.common.StorageError`).
    Returns the record."""
    existing = index.get_record(key, include_ghost=True)
    if existing is None:
        logged = InsertRecord(txn.txn_id, index.name, key, row)
    elif existing.is_ghost:
        logged = ReviveRecord(
            txn.txn_id, index.name, key, row, existing.current_row
        )
    else:
        raise StorageError(f"duplicate key {key!r} in index {index.name!r}")
    record = index.set_entry(key, (row, False), db.log.append(logged))
    if existing is not None:  # a revived ghost
        db.cleanup.cancel(index.name, key)
    txn.touch_record(record)
    return record


def ghost(db, txn, index, key):
    """Logically delete the live row at ``key``: the key stays as a
    ghost (a lockable fence post) until the cleaner removes it. Returns
    the record, or ``None`` when no live row is there."""
    record = index.get_record(key)
    if record is None:
        return None
    lsn = db.log.append(
        GhostRecord(txn.txn_id, index.name, key, record.current_row)
    )
    index.set_entry(key, (record.current_row, True), lsn)
    txn.touch_record(record)
    db.cleanup.enqueue(index.name, key)
    return record


def patch(db, txn, index, key, row):
    """Replace the live row at ``key`` in place (the key cannot change).
    Returns the record, or ``None`` when no live row is there."""
    record = index.get_record(key)
    if record is None:
        return None
    lsn = db.log.append(
        UpdateRecord(txn.txn_id, index.name, key, record.current_row, row)
    )
    index.set_entry(key, (row, False), lsn)
    txn.touch_record(record)
    return record


def erase(db, txn, index, key):
    """Physically remove the ghost at ``key`` — the cleaner's step, in
    its system transaction. Returns the removed record, or ``None`` when
    no ghost is there."""
    record = index.get_record(key, include_ghost=True)
    if record is None or not record.is_ghost:
        return None
    lsn = db.log.append(
        CleanupRecord(txn.txn_id, index.name, key, record.current_row)
    )
    index.set_entry(key, None, lsn)
    db.cleanup.cancel(index.name, key)
    return record
