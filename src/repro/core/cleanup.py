"""The ghost cleaner: asynchronous deferred deletion.

Escrow locking forbids inline deletion of maybe-empty aggregate groups
(the decrementing transaction cannot know whether a concurrent increment
is in flight), and ghosting keeps deleted keys around as lockable fence
posts. Somebody has to actually reclaim them: this module.

Candidates arrive on a queue — enqueued when a commit folds a group's
count to zero, or when a maintainer ghosts a view row. The cleaner drains
the queue in short **system transactions** with a NOWAIT lock policy:

* a candidate whose locks are contested is *requeued*, not waited on —
  cleanup must never block user work;
* a candidate that turned out to be live again (revived, or a concurrent
  increment landed first) is dropped;
* a confirmed-dead aggregate group is first ghosted (if still live with
  zero counts) and then physically removed; its escrow slot, empty by
  then, goes with the record.

Each candidate is processed in its own system transaction, which commits
independently of every user transaction — the multi-level transaction
structure the paper requires (a user rollback never resurrects a cleaned
ghost, and a cleaner crash never affects user work).
"""

from repro.common import TransactionAborted
from repro.locking.keyrange import locks_for_ghost_cleanup, locks_for_update
from repro.txn.write import erase, ghost


class CleanupQueue:
    """Pending (index_name, key) candidates, deduplicated, first in
    first out."""

    def __init__(self):
        self._items = {}  # insertion-ordered set

    def __len__(self):
        return len(self._items)

    def enqueue(self, index_name, key):
        self._items.setdefault((index_name, key))

    def cancel(self, index_name, key):
        """Drop a candidate (it was revived, or removed already)."""
        self._items.pop((index_name, key), None)

    def pop(self):
        for item in self._items:
            del self._items[item]
            return item
        return None

    def drop_index(self, index_name):
        """Purge every candidate of ``index_name`` (its index is being
        dropped — a vanished build); the cleaner must never probe an
        index that no longer exists."""
        self._items = {
            item: None for item in self._items if item[0] != index_name
        }

    def snapshot(self):
        return list(self._items)


class GhostCleaner:
    """Drains the cleanup queue in NOWAIT system transactions."""

    def __init__(self, db):
        self._db = db
        self.cleaned = 0
        self.requeued = 0
        self.skipped_live = 0

    def run(self, limit=None):
        """Process up to ``limit`` candidates (all, when ``None``).

        Returns the number of keys physically removed.
        """
        db = self._db
        removed = 0
        budget = len(db.cleanup) if limit is None else limit
        while budget > 0:
            budget -= 1
            item = db.cleanup.pop()
            if item is None:
                break
            index_name, key = item
            if self._clean_one(index_name, key):
                removed += 1
        return removed

    def _clean_one(self, index_name, key):
        db = self._db
        index = db.index(index_name)
        record = index.get_record(key, include_ghost=True)
        if record is None:
            return False  # already gone
        txn = db.begin_system()
        try:
            if db.faults.active:
                # An interrupted cleaner pass must requeue, never lose, the
                # candidate — the existing contention handler below does
                # exactly that for any TransactionAborted.
                db.faults.maybe_raise("cleanup.interrupt", txn_id=txn.txn_id)
            if not record.is_ghost:
                # A live candidate: only aggregate groups whose committed
                # count is zero qualify; anything else was revived.
                count_column = db.indexes.count_column(index_name)
                if count_column is None:
                    db.abort(txn)
                    self.skipped_live += 1
                    self._trace(db, index_name, key, "skipped_live")
                    return False
                db.acquire_plan(txn, locks_for_update(index, key))
                record = index.get_record(key, include_ghost=True)
                if record is None or record.is_ghost:
                    db.abort(txn)
                    return False
                if record.current_row[count_column] != 0 or (
                    record.escrow is not None
                    and any(map(any, record.escrow.pending.values()))
                ):
                    db.abort(txn)
                    self.skipped_live += 1
                    self._trace(db, index_name, key, "skipped_live")
                    return False
                ghost(db, txn, index, key)
            # Physically remove the ghost: lock the key and the fence above
            # it (removing a key merges two gaps).
            db.acquire_plan(txn, locks_for_ghost_cleanup(index, key))
            record = index.get_record(key, include_ghost=True)
            if record is None or not record.is_ghost:
                db.abort(txn)
                return False
            # Snapshot-horizon guard: an active snapshot older than the
            # record's final version could still read an earlier, live
            # version — physical removal would erase that history. Defer
            # until every such snapshot has closed.
            committed = record.committed_ts
            if committed is not None and db.snapshots.horizon() < committed:
                db.abort(txn)
                db.cleanup.enqueue(index_name, key)
                self.requeued += 1
                db.counters.incr("cleanup.deferred_for_snapshots")
                self._trace(db, index_name, key, "deferred")
                return False
            erase(db, txn, index, key)  # unlists it too (ghosted above)
            db.commit(txn)
            self.cleaned += 1
            db.counters.incr("cleanup.removed")
            self._trace(db, index_name, key, "removed")
            return True
        except TransactionAborted:
            # Lock contention (NOWAIT) — put it back for a later pass.
            db.abort(txn)
            db.cleanup.enqueue(index_name, key)
            self.requeued += 1
            db.counters.incr("cleanup.requeued")
            self._trace(db, index_name, key, "requeued")
            return False

    @staticmethod
    def _trace(db, index_name, key, outcome):
        if db.tracer.enabled:
            db.tracer.emit(
                "ghost_cleanup", index=index_name, key=key, outcome=outcome
            )
