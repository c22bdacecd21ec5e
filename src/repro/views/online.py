"""Bringing a view's indexes up to date — the one reconcile — and
building a view over existing rows, online or not.

:func:`reconcile` makes every index a view owns hold exactly
:func:`~repro.views.definition.expected_index_contents` over the rows it
is handed, logging each correction (``put`` / ``patch`` / ``ghost``)
under the caller's transaction. Over empty indexes that is the fill.
Every path that makes a view catch up with its base tables runs it after
one lock step (:func:`lock_step`: S on each base table, X on each index
the view owns), so it diffs against the bases as they *are*, never
replays a change against bases as they were later:

* ``create_view(...)`` (:meth:`ViewBuilder.run_locked`);
* the online flip (:meth:`ViewBuilder.finish`);
* ``rebuild_view`` (:mod:`repro.integrity.quarantine`);
* ``refresh_view`` (:mod:`repro.views.deferred`).

A build is **one system transaction**, registered in the
:class:`OnlineBuildRegistry` until its commit is durable, so a crash
leaves the view complete or absent, never registered-but-empty.
``create_view`` takes the lock step *first*: an open writer on a base
table makes it fail with the lock error rather than materialize
uncommitted rows. A view whose contents come out empty over quiet base
tables is simply registered: nothing is logged and no transaction
starts. A secondary index (``create_secondary_index``) is a view and is
built this way; a unique one over duplicate values fails its recompute
and vanishes.

``CREATE INDEXED VIEW ... WITH (online = true)`` (:meth:`ViewBuilder.run`)
must not hold base tables locked for a full scan. It runs two phases:

1. **snapshot** — reconcile, taking no lock, against the base tables
   *as of* the build's start timestamp (the version chains give the
   consistent picture). Writers keep committing; their maintenance of
   the half-built view is *suppressed* (every write plan skips it)
   and reads refuse it.
2. **flip** — the lock step (quiescing writers for the handoff only),
   then reconcile against the live rows — which corrects whatever
   committed since the snapshot — and commit. From the commit on, the
   view is ordinarily maintained.

A crash before the build's durable commit makes recovery undo every
build write — the half-built view then **vanishes** (catalog and indexes
dropped); a crash after it replays the build as a winner and the view
**completes on recovery**. :func:`resolve_after_recovery` applies that
verdict; the ``view_online_build`` trace event records each phase.
"""

from repro.common import SimulatedCrash
from repro.locking import LockMode
from repro.locking.keyrange import table_resource
from repro.locking.modes import mode_compatible
from repro.txn.write import ghost, patch, put
from repro.views.definition import expected_index_contents
from repro.wal.records import CommitRecord

FAULT_SITE = "view.online_build"


def lock_step(txn, view):
    """S on every base table (writers quiesce), X on every index the
    view owns (its readers and escrow holders too)."""
    for table in view.base_tables():
        txn.acquire(table_resource(table), LockMode.S)
    for index_name, *_ in view.owned_indexes():
        txn.acquire(table_resource(index_name), LockMode.X)


def live_rows(db):
    """``rows_of`` over the live rows: the committed rows once
    :func:`lock_step` holds."""
    return lambda table: db.index(table).rows()


def reconcile(db, txn, view, rows_of, crash_detail=None):
    """Make every index ``view`` owns hold exactly
    ``expected_index_contents(view, rows_of)``, logging each correction
    under ``txn``; returns how many were needed.

    Walks each index's expected keys in their order, then the keys only
    the index holds. The caller's X lock on the index excludes every
    escrow holder, so no corrected record holds pending deltas.
    ``crash_detail`` names a build phase: the ``view.online_build`` site
    is evaluated before each correction with detail
    ``<crash_detail>:<n>``."""
    corrections = 0
    for index_name, expected in expected_index_contents(view, rows_of).items():
        index = db.index(index_name)
        actual = dict(index.scan(include_ghosts=True))
        only_held = [key for key in actual if key not in expected]
        for key in [*expected, *only_held]:
            want, record = expected.get(key), actual.get(key)
            live = record is not None and not record.is_ghost
            if want is None and not live:
                continue  # ghosts are the cleaner's business
            if live and record.current_row == want:
                continue
            if crash_detail is not None and db.faults.active:
                db.faults.maybe_crash(
                    FAULT_SITE, txn_id=txn.txn_id,
                    detail=f"{crash_detail}:{corrections}",
                )
            if want is None:
                ghost(db, txn, index, key)
            elif live:
                patch(db, txn, index, key, want)
            else:
                put(db, txn, index, key, want)
            corrections += 1
    return corrections


def bring_up_to_date(db, view):
    """One system transaction: the lock step, then :func:`reconcile`
    against the live rows. Returns ``(txn, corrections)``."""
    def body(txn):
        lock_step(txn, view)
        return reconcile(db, txn, view, live_rows(db))

    txn = db.begin_system()
    return txn, db.settle(txn, body)


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
    the online phases :meth:`start` / :meth:`finish` separately to
    interleave writers between them. Any failure short of a crash makes
    the half-built view vanish before the error propagates; a
    :class:`~repro.common.SimulatedCrash` leaves the state exactly as-is
    for recovery to settle.
    """

    def __init__(self, db, view):
        self.db = db
        self.view = view
        self.txn = None
        self.build_ts = None
        self._installed = False

    def _emit(self, phase, rows=0):
        if self.db.tracer.enabled:
            self.db.tracer.emit(
                "view_online_build",
                txn_id=self.txn.txn_id if self.txn is not None else None,
                view=self.view.name, phase=phase, rows=rows,
            )

    def _guarded(self, phase):
        try:
            phase()
        except SimulatedCrash:
            raise
        except BaseException:
            self._vanish()  # idempotent
            raise
        return self.view

    def run_locked(self):
        """Build under the lock step throughout; returns the view
        definition."""
        return self._guarded(self._build_locked)

    def run(self):
        """start -> finish; returns the view definition."""
        self.start()
        return self.finish()

    def start(self):
        """Register the view (suppressed + unreadable), then fill it from
        a snapshot of the base tables at the build timestamp."""
        def snapshot():
            db = self.db
            self._install()
            self._begin()
            self.build_ts = db.clock.now()
            self._fill(lambda table: db.indexes.rows_as_of(table, self.build_ts))

        self._guarded(snapshot)
        return self

    def finish(self):
        """Flip: the lock step, reconcile against the live rows, commit
        durably; returns the view definition."""
        def flip():
            db, view, txn = self.db, self.view, self.txn
            lock_step(txn, view)
            self._emit("flip", rows=reconcile(db, txn, view, live_rows(db)))
            self._commit()

        return self._guarded(flip)

    def _build_locked(self):
        self._install()
        if self._nothing_to_build():
            return
        self._begin()
        lock_step(self.txn, self.view)
        self._fill(live_rows(self.db))
        self._commit()

    def _nothing_to_build(self):
        """True when no open writer holds a base table (so the live rows
        are the committed rows) and the view computes empty over them."""
        db, view = self.db, self.view
        for table in view.base_tables():
            held = db.locks.holders(table_resource(table)).values()
            if not all(mode_compatible(mode, LockMode.S) for mode in held):
                return False
        contents = expected_index_contents(view, live_rows(db))
        return not any(contents.values())

    def _install(self):
        """Register the view and create the (empty) indexes it owns."""
        self.db.indexes.add_view(self.view)
        self._installed = True

    def _begin(self):
        """Open the build transaction and list the build: from here on
        the view is suppressed for writers' maintenance, unreadable, and
        recovery's to settle."""
        db, view = self.db, self.view
        self.txn = db.begin_system()
        db.online_builds.register(
            view.name, self.txn.txn_id, lambda: db.indexes.drop_view(view)
        )

    def _fill(self, rows_of):
        """Reconcile the fresh indexes over ``rows_of``: the fill."""
        rows = reconcile(
            self.db, self.txn, self.view, rows_of, crash_detail="snapshot"
        )
        self._emit("snapshot", rows=rows)

    def _commit(self):
        db, view, txn = self.db, self.view, self.txn
        if db.faults.active:
            db.faults.maybe_crash(
                FAULT_SITE, txn_id=txn.txn_id, detail="flip"
            )
        db.settle(txn)
        if txn.stats.log_bytes == 0:
            # a view that computed empty logged nothing: there is no
            # commit for recovery to find, and nothing left to settle
            db.online_builds.remove(view.name)
        if db.faults.active:
            db.faults.maybe_crash(
                FAULT_SITE, txn_id=txn.txn_id, detail="post_commit",
                committed=True,
            )
        db.online_builds.remove(view.name)
        self._installed = False  # finished: nothing left to vanish
        self._emit("completed")

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
        db.indexes.drop_view(view)
        db.online_builds.remove(view.name)
        self._emit("vanished")


def resolve_after_recovery(db):
    """Settle every build interrupted by a crash: a durable COMMIT for
    the build transaction means it completed (recovery already replayed
    it as a winner); anything else vanishes (recovery already undid it
    as a loser). Called by ``Restart.recover`` before the baseline
    versions are stamped and the cleanup work list is rebuilt."""
    resolutions = []
    for name, build in sorted(db.online_builds.pending().items()):
        committed = any(
            cls is CommitRecord and txn_id == build["txn_id"]
            for cls, _, txn_id, _ in db.log.headers()
        )
        if not committed:
            build["drop"]()
        db.online_builds.remove(name)
        phase = "completed_on_recovery" if committed else "vanished"
        resolutions.append((name, phase))
        if db.tracer.enabled:
            db.tracer.emit("view_online_build", view=name, phase=phase, rows=0)
    return resolutions
