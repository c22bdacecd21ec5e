"""Deferred view maintenance — the baseline immediate maintenance beats.

In deferred mode, base-table changes append to a per-view queue instead of
touching the view; update transactions are cheap but readers see stale
views. :meth:`DeferredMaintainer.refresh` drains a view's queue inside a
system transaction, running the same maintenance actions immediate mode
would have through :func:`~repro.views.actions.run_actions`.

Staleness is observable: :meth:`pending_count` and
:meth:`staleness_ticks` (age of the oldest unapplied change) feed
experiment R6.
"""

from collections import deque

from repro.views.actions import run_actions


class _PendingChange:
    __slots__ = ("table", "before", "after", "enqueued_at")

    def __init__(self, table, before, after, enqueued_at):
        self.table = table
        self.before = before
        self.after = after
        self.enqueued_at = enqueued_at


class DeferredMaintainer:
    """Per-view queues of unapplied base-table changes."""

    def __init__(self, clock):
        self._clock = clock
        self._queues = {}  # view name -> deque of _PendingChange
        self.total_enqueued = 0
        self.total_applied = 0

    def enqueue(self, view, table, before, after):
        queue = self._queues.setdefault(view.name, deque())
        queue.append(_PendingChange(table, before, after, self._clock.now()))
        self.total_enqueued += 1

    def pending_count(self, view_name=None):
        if view_name is not None:
            return len(self._queues.get(view_name, ()))
        return sum(len(q) for q in self._queues.values())

    def staleness_ticks(self, view_name):
        """Clock age of the oldest unapplied change (0 when fresh)."""
        queue = self._queues.get(view_name)
        if not queue:
            return 0
        return self._clock.now() - queue[0].enqueued_at

    def refresh(self, db, view_name, limit=None):
        """Apply pending changes for ``view_name`` inside a system
        transaction. Returns the number of changes applied.

        The refresh transaction takes the same locks immediate maintenance
        would, so it serializes correctly against concurrent readers.
        """
        queue = self._queues.get(view_name)
        if not queue:
            return 0
        view = db.catalog.view(view_name)
        engine = db.maintenance

        def drain(txn):
            applied = 0
            while queue and (limit is None or applied < limit):
                change = queue[0]
                run_actions(db, txn, engine.compile_view(
                    db, txn, view, change.table, change.before, change.after
                ))
                queue.popleft()
                applied += 1
                self.total_applied += 1
            return applied

        return db.settle(db.begin_system(), drain)

    def refresh_all(self, db):
        """Refresh every view with pending changes; returns total applied."""
        total = 0
        for view_name in sorted(self._queues):
            total += self.refresh(db, view_name)
        return total
