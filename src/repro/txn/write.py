"""The logged row writes: put, ghost, patch.

Every change a transaction makes to a row of an index — a base table, a
view index, an auxiliary or a secondary index — is one of three
primitives. Each mutates the :class:`~repro.storage.index.Index`,
appends the one WAL record that redoes and undoes it, remembers the
record for version stamping at commit, and keeps the ghost cleaner's
work list in step. They take no locks: the caller's
:class:`~repro.views.actions.Action` plan (or table lock) was acquired
first — lock first, mutate second.

These are the only constructors of ``InsertRecord`` / ``ReviveRecord``
/ ``GhostRecord`` / ``UpdateRecord`` outside ``repro/wal/`` (the
``logged-write`` lint rule), so a write that forgets the log, the
version stamp or the cleaner cannot be spelled.
"""

from repro.wal.records import (
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
    if existing is not None and existing.is_ghost:
        ghost_row = existing.current_row
        index.insert(key, row)
        db.log.append(ReviveRecord(txn.txn_id, index.name, key, row, ghost_row))
        db.cleanup.cancel(index.name, key)
        txn.touch_record(existing)
        return existing
    record = index.insert(key, row)
    db.log.append(InsertRecord(txn.txn_id, index.name, key, row))
    txn.touch_record(record)
    return record


def ghost(db, txn, index, key):
    """Logically delete the live row at ``key``: the key stays as a
    ghost (a lockable fence post) until the cleaner removes it. Returns
    the record, or ``None`` when no live row is there."""
    record = index.get_record(key)
    if record is None:
        return None
    index.logical_delete(key)
    db.log.append(GhostRecord(txn.txn_id, index.name, key, record.current_row))
    txn.touch_record(record)
    db.cleanup.enqueue(index.name, key)
    return record


def patch(db, txn, index, key, row):
    """Replace the live row at ``key`` in place (the key cannot change).
    Returns the record, or ``None`` when no live row is there."""
    record = index.get_record(key)
    if record is None:
        return None
    db.log.append(UpdateRecord(txn.txn_id, index.name, key, record.current_row, row))
    record.current_row = row
    txn.touch_record(record)
    return record
