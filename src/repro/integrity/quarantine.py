"""View quarantine and online rebuild.

A view the integrity checker condemned (or an operator distrusts) is
*quarantined*: its maintained contents are presumed damaged, so

* **reads degrade** — every read of the view (the engine's one read
  path: ``read`` / ``read_exact`` / ``scan`` / ``read_committed`` /
  ``scan_committed``) transparently recomputes the answer from the base
  tables under the caller's isolation level (serializable readers take
  table-level S locks on the bases; snapshot and committed readers use
  their version timestamp), and
* **maintenance pauses** — base-table DML stops compiling maintenance
  actions for the view (its contents will be thrown away anyway), so
  damaged state cannot make maintainers fail user statements. A
  secondary index is the exception: a unique constraint cannot be
  checked later, so writes keep maintaining it and only its reads
  degrade.

The quarantine lifts when :meth:`QuarantineManager.rebuild` runs the one
reconcile (:func:`repro.views.online.bring_up_to_date`): a system
transaction takes S on the base tables and X on each view-owned index,
diffs the maintained contents against a fresh recomputation (logging
every correction, so a crash mid-rebuild replays or rolls back cleanly),
and commits. Quarantine state is part of
the *operator's* knowledge, not the engine's volatile state: it survives
``simulate_crash_and_recover`` until explicitly lifted.
"""

from repro.common import IntegrityError
from repro.locking import LockMode
from repro.locking.keyrange import table_resource
from repro.views.online import bring_up_to_date


class QuarantineManager:
    """Tracks quarantined views; serves degraded reads; rebuilds."""

    def __init__(self, db):
        self._db = db
        self._reasons = {}  # view name -> reason string

    @property
    def active(self):
        """Cheap guard for the read hot path."""
        return bool(self._reasons)

    def is_quarantined(self, name):
        return name in self._reasons

    def quarantined(self):
        return sorted(self._reasons)

    def reason(self, name):
        return self._reasons.get(name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def quarantine(self, view_name, reason="operator"):
        """Put ``view_name`` under quarantine; returns the definition."""
        db = self._db
        view = db.catalog.view(view_name)  # CatalogError on unknown names
        self._reasons[view.name] = reason
        db.counters.incr("integrity.quarantines")
        if db.tracer.enabled:
            db.tracer.emit("view_quarantined", view=view.name, reason=reason)
        return view

    def lift(self, view_name):
        """Drop the quarantine without rebuilding (operator override —
        asserts the maintained contents are actually trustworthy)."""
        if view_name not in self._reasons:
            raise IntegrityError(f"view {view_name!r} is not quarantined")
        del self._reasons[view_name]

    # ------------------------------------------------------------------
    # degraded reads
    # ------------------------------------------------------------------

    def degraded_contents(self, view, txn, as_of):
        """The view's visible contents recomputed from its base tables,
        as ``{key: row}``: from their versions as of ``as_of``, or — with
        ``as_of`` ``None``, a locked read — their live rows under a
        table-level S lock per base table taken by ``txn``, which makes
        the recomputation as repeatable as the maintained view index
        would have been. (Base tables cannot be quarantined, so this
        never recurses.)"""
        db = self._db
        db.counters.incr("integrity.degraded_reads")
        if as_of is not None:
            return view.recompute(
                lambda table: db.indexes.rows_as_of(table, as_of)
            )

        def rows_of(table):
            txn.acquire(table_resource(table), LockMode.S)
            return list(db.index(table).rows())

        return view.recompute(rows_of)

    # ------------------------------------------------------------------
    # rebuild
    # ------------------------------------------------------------------

    def rebuild(self, view_name):
        """Bring a quarantined view up to date and lift the quarantine.
        Returns the number of corrections applied. An interrupted rebuild
        rolls back like any transaction: the view is still quarantined.
        """
        db = self._db
        view = db.catalog.view(view_name)
        if view.name not in self._reasons:
            raise IntegrityError(
                f"view {view_name!r} is not quarantined; quarantine it "
                "before rebuilding (rebuild is the quarantine exit path)"
            )
        txn, corrections = bring_up_to_date(db, view)
        del self._reasons[view.name]
        db.counters.incr("integrity.rebuilds")
        if db.tracer.enabled:
            db.tracer.emit(
                "view_rebuilt", txn_id=txn.txn_id, view=view.name,
                corrections=corrections,
            )
        return corrections
