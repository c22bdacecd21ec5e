"""Building an indexed view over existing rows — online or not.

Either way the fill is **one system transaction** of logged inserts,
registered in the :class:`OnlineBuildRegistry` until its commit is
durable, so a crash leaves the view complete or absent, never
registered-but-empty. The two ways differ only in how the base tables
are held still:

``create_view(...)`` (:meth:`ViewBuilder.run_locked`) takes a table S
lock on every base table *first*. The live rows are then the committed
rows and nothing commits behind the fill, so there is no gap to catch
up; an open writer on a base table makes the build fail with the lock
error rather than materialize its uncommitted rows. A view whose
contents come out empty over quiet base tables is simply registered:
nothing is logged and no transaction starts. A secondary index
(``create_secondary_index``) is a view and is built this way; a unique
one over duplicate values fails its recompute and vanishes.

``CREATE INDEXED VIEW ... WITH (online = true)`` (:meth:`ViewBuilder.run`)
must not hold base tables locked for the duration of a full scan. It
runs three phases:

1. **snapshot** — scan the base tables *as of* the build's start
   timestamp (the version chains provide the consistent picture; no base
   locks taken) and compute the view's contents from that snapshot.
   Writers keep committing; their maintenance of the half-built view is
   *suppressed* (see ``MaintenanceEngine.suppressed``), so nothing races
   the build's inserts.
2. **catchup** — find every transaction that committed after the
   snapshot timestamp, walk its log backchain for base-table changes,
   and re-apply them to the view through the ordinary maintainers (the
   same delta programs immediate maintenance uses — escrow and all).
   Repeatable until the gap is drained.
3. **flip** — take a short S lock on each base table and X on the view
   (quiescing writers for the handoff only), drain the last gap, verify
   the contents against a fresh recomputation, and commit. From the
   commit on, the view is ordinarily maintained.

Crash safety falls out of transaction atomicity: the whole build is one
transaction, so a crash before the durable commit makes recovery undo
every view insert — the half-built view then **vanishes** (catalog and
indexes dropped, never half-maintained). A crash after the durable
commit replays the build as a winner and the view **completes on
recovery**. :func:`resolve_after_recovery` applies that verdict; the
``view_online_build`` trace event records each phase.

Reads of a building view are refused (:class:`~repro.common.CatalogError`)
— it does not logically exist until the build commits.
"""

from repro.common import (
    CatalogError,
    IntegrityError,
    SimulatedCrash,
    TransactionAborted,
)
from repro.integrity.checker import view_problems
from repro.locking import LockMode
from repro.locking.keyrange import locks_for_insert, table_resource
from repro.locking.modes import mode_compatible
from repro.txn.write import put
from repro.views.actions import run_actions
from repro.views.definition import expected_index_contents
from repro.wal.records import CompensationRecord, RecordType

FAULT_SITE = "view.online_build"


class OnlineBuildRegistry:
    """Fills in flight — views (secondary indexes included) being built
    over existing rows: ``name -> {"txn_id", "drop"}``, ``drop()`` making
    the unfinished view vanish.

    Plain Python state, deliberately *not* reset by recovery (like the
    catalog): after a crash the registry is exactly the list of builds
    whose fate recovery must resolve — completed (durable commit) or
    vanished (loser).
    """

    def __init__(self):
        self._building = {}

    @property
    def active(self):
        return bool(self._building)

    def is_building(self, name):
        return name in self._building

    def register(self, name, txn_id, drop):
        self._building[name] = {"txn_id": txn_id, "drop": drop}

    def remove(self, name):
        self._building.pop(name, None)

    def pending(self):
        return dict(self._building)


class ViewBuilder:
    """Drives one build; see the module docstring.

    :meth:`run_locked` and :meth:`run` do the whole dance; tests drive
    the online phases :meth:`start` / :meth:`catch_up` / :meth:`finish`
    separately to interleave writers between them.
    """

    def __init__(self, db, view):
        self.db = db
        self.view = view
        self.txn = None
        self.build_ts = None
        self._installed = False
        self._applied_txns = set()

    def _emit(self, phase, rows=0, txns=0):
        if self.db.tracer.enabled:
            self.db.tracer.emit(
                "view_online_build",
                txn_id=self.txn.txn_id if self.txn is not None else None,
                view=self.view.name, phase=phase, rows=rows, txns=txns,
            )

    # ------------------------------------------------------------------
    # the two ways to run
    # ------------------------------------------------------------------

    def run_locked(self):
        """Build holding S on the base tables throughout; returns the
        view definition."""
        return self._guarded(self._build_locked)

    def run(self):
        """start -> catch_up -> finish; returns the view definition."""
        return self._guarded(self.start, self.catch_up, self.finish)

    def _guarded(self, *phases):
        """Any failure short of a crash makes the half-built view vanish
        before the error propagates; a :class:`SimulatedCrash` leaves the
        state exactly as-is for recovery to settle."""
        try:
            for phase in phases:
                phase()
        except SimulatedCrash:
            raise
        except BaseException:
            self._vanish()  # idempotent — finish() may already have
            raise
        return self.view

    def _build_locked(self):
        self._install()
        if self._nothing_to_build():
            return
        self._begin()
        self._lock_tables()
        self._fill(self._live_rows)
        self._commit()

    def _live_rows(self, table):
        return self.db.index(table).rows()

    def _nothing_to_build(self):
        """True when no open writer holds a base table (so the live rows
        are the committed rows) and the view computes empty over them."""
        db, view = self.db, self.view
        for table in view.base_tables():
            held = db.locks.holders(table_resource(table)).values()
            if not all(mode_compatible(mode, LockMode.S) for mode in held):
                return False
        contents = expected_index_contents(view, self._live_rows)
        return not any(contents.values())

    # ------------------------------------------------------------------
    # shared steps
    # ------------------------------------------------------------------

    def _install(self):
        """Register the view and create the (empty) indexes it owns."""
        db, view = self.db, self.view
        if view.name in db._indexes:
            # Validate *before* mutating anything: a duplicate name must
            # never reach _vanish, which would drop the storage of the
            # existing view/table that owns the name.
            raise CatalogError(f"name {view.name!r} already in use")
        db.catalog.add_view(view)
        db._create_view_indexes(view)
        self._installed = True

    def _begin(self):
        """Open the build transaction and list the build: from here on
        the view is suppressed for writers' maintenance, unreadable, and
        recovery's to settle."""
        db, view = self.db, self.view
        self.txn = db.begin_system()
        self._applied_txns.add(self.txn.txn_id)
        db.online_builds.register(
            view.name, self.txn.txn_id, lambda: _drop_view_storage(db, view)
        )

    def _lock_tables(self):
        """S on every base table (writers quiesce), X on the view."""
        txn = self.txn
        try:
            for table in self.view.base_tables():
                txn.acquire(table_resource(table), LockMode.S)
            txn.acquire(table_resource(self.view.name), LockMode.X)
        except TransactionAborted:
            # NOWAIT lost against a live writer: completes-or-vanishes
            # means vanish here; the caller may rebuild later.
            self._vanish()
            raise

    def _fill(self, rows_of):
        """Insert, logged and locked under the build transaction (undone
        wholesale if the build loses), what every owned index must hold
        over ``rows_of``."""
        db, view, txn = self.db, self.view, self.txn
        count = 0
        contents = expected_index_contents(view, rows_of)
        for index_name, expected in contents.items():
            index = db.index(index_name)
            for key, row in expected.items():
                if index_name == view.name:
                    if db.faults.active:
                        db.faults.maybe_crash(
                            FAULT_SITE, txn_id=txn.txn_id,
                            detail=f"snapshot:{count}",
                        )
                    count += 1
                db.acquire_plan(
                    txn, locks_for_insert(index, key, db.config.serializable)
                )
                put(db, txn, index, key, row)
        self._emit("snapshot", rows=count)

    def _commit(self):
        db, view, txn = self.db, self.view, self.txn
        if db.faults.active:
            db.faults.maybe_crash(
                FAULT_SITE, txn_id=txn.txn_id, detail="flip"
            )
        db.settle(txn)
        if db.faults.active:
            db.faults.maybe_crash(
                FAULT_SITE, txn_id=txn.txn_id, detail="post_commit",
                committed=True,
            )
        db.online_builds.remove(view.name)
        self._installed = False  # finished: nothing left to vanish
        self._emit("completed")

    # ------------------------------------------------------------------
    # the online phases
    # ------------------------------------------------------------------

    def start(self):
        """Register the view (suppressed + unreadable), then populate it
        from a snapshot of the base tables at the build timestamp."""
        db, view = self.db, self.view
        if view.has_extremes():
            raise CatalogError(
                f"view {view.name!r}: MIN/MAX views cannot be built "
                "online — extremes are not delta-maintainable, so the "
                "catch-up phase could not replay writer deletes"
            )
        if view.deferred:
            raise CatalogError(
                f"view {view.name!r}: online build and deferred "
                "maintenance are mutually exclusive"
            )
        self._install()
        self._begin()
        self.build_ts = db.clock.now()
        self._fill(lambda table: db.rows_as_of(table, self.build_ts))
        return self

    def catch_up(self):
        """Replay base-table changes of every transaction that committed
        after the build timestamp and has not been applied yet. Returns
        the number of transactions caught up; call repeatedly."""
        db, view = self.db, self.view
        committed = [
            record for record in db.log.records()
            if record.type is RecordType.COMMIT
            and record.commit_ts > self.build_ts
            and record.txn_id not in self._applied_txns
        ]
        committed.sort(key=lambda commit: (commit.commit_ts, commit.txn_id))
        bases = set(view.base_tables())
        for commit in committed:
            if db.faults.active:
                db.faults.maybe_crash(
                    FAULT_SITE, txn_id=self.txn.txn_id,
                    detail=f"catchup:{commit.txn_id}",
                )
            changes = self._base_changes(commit.prev_lsn, bases)
            for table, before, after in changes:
                actions = db.maintenance.compile_view(
                    db, self.txn, view, table, before, after
                )
                run_actions(db, self.txn, actions)
            self._applied_txns.add(commit.txn_id)
        if committed:
            self._emit("catchup", txns=len(committed))
        return len(committed)

    def _base_changes(self, lsn, bases):
        """One committed transaction's base-table changes, in log order,
        as ``(table, before, after)`` rows.

        Walks the undo backchain from ``lsn``, the record before its
        COMMIT; a CLR's ``undo_next_lsn`` jumps over the compensated
        record, so partially-rolled-back work nets out to exactly what
        survived — the same skip rule ARIES undo uses.
        """
        changes = []
        while lsn is not None:
            record = self.db.log.record_at(lsn)
            if isinstance(record, CompensationRecord):
                lsn = record.undo_next_lsn
                continue
            index_name = getattr(record, "index_name", None)
            if index_name in bases:
                # a ghost or no slot is no row: CLEANUP changes nothing
                before = _live_row(record.before_entry())
                after = _live_row(record.after_entry())
                if before is not None or after is not None:
                    changes.append((index_name, before, after))
            lsn = record.prev_lsn
        changes.reverse()
        return changes

    def finish(self):
        """Flip: quiesce writers with short table locks, drain the last
        gap, verify against recomputation, commit durably."""
        self._lock_tables()
        self.catch_up()
        problems = view_problems(self.db, self.view)
        if problems:
            self._vanish()
            raise IntegrityError(
                f"online build of {self.view.name!r} failed verification: "
                + "; ".join(problems)
            )
        self._commit()
        return self.view

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------

    def _vanish(self):
        """Remove every trace of the unfinished view (indexes, catalog,
        cleanup candidates); abort the build transaction if still live."""
        from repro.txn.transaction import TxnState

        db, view = self.db, self.view
        if self.txn is not None and self.txn.state is TxnState.ACTIVE:
            db.abort(self.txn, reason="online build abandoned")
        if not self._installed:
            return  # never registered (or already vanished)
        self._installed = False
        _drop_view_storage(db, view)
        db.online_builds.remove(view.name)
        self._emit("vanished")


def _live_row(entry):
    """The row an index entry shows a reader: ``None`` for a ghost or
    for no slot."""
    return None if entry is None or entry[1] else entry[0]


def _drop_view_storage(db, view):
    """Drop the view's catalog entry and every index it owns."""
    if db.catalog.has_view(view.name):
        db.catalog.drop_view(view.name)
    for index_name, _ in view.owned_indexes():
        db._indexes.pop(index_name, None)
        db._index_views.pop(index_name, None)
        db.cleanup.drop_index(index_name)


def resolve_after_recovery(db):
    """Settle every build interrupted by a crash: a durable COMMIT for
    the build transaction means it completed (recovery already replayed
    it as a winner); anything else vanishes (recovery already undid it
    as a loser). Called by ``Database._rebuild_from_log`` before
    ``_post_recovery`` stamps versions and enqueues cleanup."""
    resolutions = []
    for name, build in sorted(db.online_builds.pending().items()):
        committed = any(
            record.type is RecordType.COMMIT
            and record.txn_id == build["txn_id"]
            for record in db.log.records()
        )
        if not committed:
            build["drop"]()
        db.online_builds.remove(name)
        phase = "completed_on_recovery" if committed else "vanished"
        resolutions.append((name, phase))
        if db.tracer.enabled:
            db.tracer.emit(
                "view_online_build", view=name, phase=phase,
                rows=0, txns=0,
            )
    return resolutions
