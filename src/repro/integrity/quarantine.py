"""View quarantine and online rebuild.

A view the integrity checker condemned (or an operator distrusts) is
*quarantined*: its maintained contents are presumed damaged, so

* **reads degrade** — ``Database.read`` / ``scan`` / ``read_committed``
  against the view transparently recompute the answer from the base
  tables under the caller's isolation level (serializable readers take
  table-level S locks on the bases; snapshot readers use their version
  timestamp), and
* **maintenance pauses** — base-table DML stops compiling maintenance
  actions for the view (its contents will be thrown away anyway), so
  damaged state cannot make maintainers fail user statements. A
  secondary index is the exception: a unique constraint cannot be
  checked later, so writes keep maintaining it and only its reads
  degrade.

The quarantine lifts when :meth:`QuarantineManager.rebuild` runs: a
system transaction takes S locks on the base tables and an X lock on
each view-owned index, reconciles the maintained contents against a
fresh recomputation (logging every correction, so a crash mid-rebuild
replays or rolls back cleanly), and commits. Quarantine state is part of
the *operator's* knowledge, not the engine's volatile state: it survives
``simulate_crash_and_recover`` until explicitly lifted.
"""

from repro.common import IntegrityError
from repro.locking import LockMode
from repro.locking.keyrange import table_resource
from repro.txn.write import ghost, patch, put
from repro.views.definition import expected_index_contents


class QuarantineManager:
    """Tracks quarantined views; serves degraded reads; rebuilds."""

    def __init__(self, db):
        self._db = db
        self._reasons = {}  # view name -> reason string
        self.degraded_reads = 0
        self.rebuilds = 0

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

    def degraded_contents(self, view, txn=None):
        """The view's visible contents recomputed from its base tables,
        as ``{key: row}``, under ``txn``'s isolation (``None`` = a fresh
        committed read)."""
        self.degraded_reads += 1
        self._db.counters.incr("integrity.degraded_reads")
        return self._recompute(view, txn)

    def _recompute(self, view, txn):
        db = self._db
        if txn is None or txn.isolation in ("snapshot", "read_committed"):
            if txn is not None and txn.isolation == "snapshot":
                as_of = txn.read_ts
            else:
                as_of = db.clock.now()

            def rows_of(table):
                return db.rows_as_of(table, as_of)
        else:
            # Serializable: a table-level S lock on each base table makes
            # the recomputation as repeatable as the maintained view index
            # would have been. Base tables cannot be quarantined, so this
            # never recurses.
            def rows_of(table):
                txn.acquire(table_resource(table), LockMode.S)
                return list(db.index(table).rows())

        return view.recompute(rows_of)

    # ------------------------------------------------------------------
    # rebuild
    # ------------------------------------------------------------------

    def rebuild(self, view_name):
        """Re-materialize a quarantined view online and lift the
        quarantine. Returns the number of corrections applied.

        Runs as one system transaction: S locks on the base tables (the
        recomputation source must hold still), X locks on every
        view-owned index, then a reconcile of maintained contents against
        the fresh recomputation. Every correction is logged through the
        normal WAL records, so recovery replays a committed rebuild and
        rolls back an interrupted one — after which the view is simply
        still quarantined.
        """
        db = self._db
        view = db.catalog.view(view_name)
        if view.name not in self._reasons:
            raise IntegrityError(
                f"view {view_name!r} is not quarantined; quarantine it "
                "before rebuilding (rebuild is the quarantine exit path)"
            )

        def reconcile(txn):
            for base in view.base_tables():
                txn.acquire(table_resource(base), LockMode.S)
            for index_name, _ in view.owned_indexes():
                txn.acquire(table_resource(index_name), LockMode.X)
            contents = expected_index_contents(
                view, lambda table: db.index(table).rows()
            )
            return sum(
                self._reconcile(txn, index_name, expected)
                for index_name, expected in sorted(contents.items())
            )

        txn = db.begin_system()
        corrections = db.settle(txn, reconcile)
        del self._reasons[view.name]
        self.rebuilds += 1
        db.counters.incr("integrity.rebuilds")
        if db.tracer.enabled:
            db.tracer.emit(
                "view_rebuilt", txn_id=txn.txn_id, view=view.name,
                corrections=corrections,
            )
        return corrections

    def _reconcile(self, txn, index_name, expected):
        """Make ``index_name`` hold exactly ``expected``, logging each
        correction; returns how many were needed."""
        db = self._db
        index = db.index(index_name)
        actual = dict(index.scan(include_ghosts=True))
        corrections = 0
        for key in sorted(set(expected) | set(actual), key=repr):
            want = expected.get(key)
            record = actual.get(key)
            if want is None:
                if record is None or record.is_ghost:
                    continue  # ghosts are the cleaner's business
                ghost(db, txn, index, key)
            elif record is None or record.is_ghost:
                put(db, txn, index, key, want)
            elif record.current_row != want:
                patch(db, txn, index, key, want)
            else:
                continue
            # Escrow accounts are created lazily from the row's current
            # value; correcting a counter row must drop any stale account
            # or the next escrow update would resume from the damaged
            # value. Safe here: the X lock on the view index excludes
            # every escrow holder.
            for column in db.counter_columns(index_name):
                db.escrow.drop((index_name, key, column))
            corrections += 1
        return corrections
