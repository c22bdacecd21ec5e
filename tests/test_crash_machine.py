"""A generated crash machine over one paged engine: the one oracle.

Hypothesis drives a :class:`RuleBasedStateMachine` over a table ``t``
(aggregate view ``by_g``) and a table ``p`` that ``t.g`` joins, on an
engine small enough that every leaf mechanism engages (order-4 trees, a
2-4 leaf dirty table), under both aggregate strategies and every
maintenance mode. Rules:

* DML, in the open transaction or autocommitted: typed one-row
  ``insert`` / ``update`` / ``delete`` on ``t`` (every value tag a row
  can hold), ``write_p`` on ``p``, and through ``Session.execute`` a
  multi-row ``sql_insert`` (all rows go in, or a repeated or present
  key refuses them all) and a group-moving ``sql_update``, with literals
  or ``?`` parameters, so prepared plans outlive DDL and crashes.
* ``begin`` / ``commit`` / ``abort`` / ``take_savepoint`` /
  ``rollback_to_savepoint``; ``prepared_branch``: ``participant.prepare``
  then commit, abort, or a crash that leaves the branch in doubt (its
  rows back) until presumed abort.
* ``create``: a locked or online build over existing rows of a filtered
  projection, a MIN/MAX aggregate, a join or a join-aggregate view over
  ``t`` and ``p``, or a unique or non-unique secondary index, optionally
  crashed at a ``view.online_build`` phase (absent after ``snapshot:<n>``
  / ``flip``, complete after ``post_commit``). A reused name is refused
  with the original intact; a build over a table the open transaction
  wrote is refused and leaves no view; a view that computes empty logs
  nothing.
* ``reader`` (serializable, read-committed, scan, SELECT,
  ``Session.run``, an aborted reader) reads the committed row;
  ``open_snapshot`` / ``snapshot_read`` reads ``history`` replayed to
  the reader's start (reenactment). Neither appends or flushes.
* ``ghost_cleanup``, ``checkpoint``, ``refresh``,
  ``quarantine_and_rebuild``.
* ``crash_and_recover`` keeps a prefix of the store's write timeline and
  a log prefix consistent with it, optionally re-entering recovery after
  a ``recovery.analysis`` / ``redo`` / ``undo`` crash; ``fault`` arms one
  single-session site (``wal.append``, ``wal.flush``, ``wal.torn_tail``,
  ``txn.commit.before`` / ``after``, ``view.midapply``,
  ``cleanup.interrupt``) for one write or cleaner pass: a retryable
  fault rolls it back, a crash keeps it iff its COMMIT was durable;
  ``restore_from_segments`` restores a WAL dump into a schema-only
  engine and continues there.

Invariants after every step: each table equals the reference (the
committed rows, kept per COMMIT LSN as ``history``, or the open
transaction's); the integrity checker finds no damage; every view equals
its recomputation when its mode promises it (``immediate``: always,
``commit_fold``: with no transaction open, ``deferred``: once a refresh
caught up); every transaction's records, backchained, match
``(ROW|CLR)* PREPARE? COMMIT | (ROW|CLR)* PREPARE? ABORT CLR* END``
(where recovery ended it, the ABORT may be missing). Every DML
statement takes only locks in the footprint of the current catalog,
re-analyzed after every DDL, crash and restore.

``REPRO_MACHINE_EXAMPLES`` sets the example count (``make test`` runs
more than a bare ``pytest`` does).
"""

import os
import re
import tempfile

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis.static import StaticAnalyzer
from repro.common import (
    CatalogError,
    FaultInjected,
    LockTimeoutError,
    SimulatedCrash,
    StorageError,
)
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.locking import LockMode
from repro.locking.keyrange import table_resource
from repro.locking.modes import mode_compatible
from repro.query import AggregateSpec
from repro.views import AggregateView
from repro.views.definition import expected_index_contents
from repro.wal import RecordType
from tests.test_sql_access_paths import lock_triples, predicted_locks
from tests.test_wal_codec import same, values

EXAMPLES = int(os.environ.get("REPRO_MACHINE_EXAMPLES", "60"))

ids = st.integers(0, 11)
groups = st.integers(0, 3)
amounts = st.integers(-5, 20)
sql_ids = st.integers(0, 23)  # wider, so most multi-row INSERTs go in
sql_values = st.one_of(st.none(), amounts, st.text("abc", max_size=3))

KEYS = {"t": "id", "p": "pid"}

#: what ``run_ddl`` builds: SQL for a view, ``(table, name, columns,
#: unique)`` for a secondary index
DDL = {
    "big": "CREATE INDEXED VIEW big AS SELECT id, amount FROM t "
           "WHERE amount >= 5",
    "lohi": "CREATE INDEXED VIEW lohi AS SELECT g, COUNT(*) AS n, "
            "MIN(amount) AS lo, MAX(amount) AS hi FROM t GROUP BY g",
    "tj": "CREATE UNIQUE INDEXED VIEW tj AS SELECT id, pid, amount, cat "
          "FROM t JOIN p ON t.g = p.pid",
    "tja": "CREATE INDEXED VIEW tja AS SELECT cat, COUNT(*) AS n, "
           "SUM(amount) AS s FROM t JOIN p ON t.g = p.pid GROUP BY cat",
    "t#by_g": ("t", "by_g", ("g",), False),
    "t#by_amount": ("t", "by_amount", ("amount", "id"), True),
}

FAULT_SITES = (
    "wal.append", "wal.flush", "wal.torn_tail", "txn.commit.before",
    "txn.commit.after", "view.midapply", "cleanup.interrupt",
)

#: one letter per record, by the role it plays in the envelope grammar
LETTER = {
    RecordType.CLR: "C", RecordType.PREPARE: "P", RecordType.COMMIT: "K",
    RecordType.ABORT: "A", RecordType.END: "E",
}
GRAMMAR = re.compile(r"[RC]*P?K|[RC]*P?AC*E")
#: a loser that recovery rolled back never logged its own ABORT
RECOVERED = re.compile(r"[RC]*P?K|[RC]*P?A?C*E")
OPEN = re.compile(r"[RC]*")


def literal(value):
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else str(value)


def run_ddl(db, name, online=False):
    ddl = DDL[name]
    if isinstance(ddl, str):
        return db.create_view(ddl, online=online)
    return db.create_secondary_index(*ddl)


def copied(tables):
    return {table: dict(rows) for table, rows in tables.items()}


def aborted_read(db, key):
    txn = db.begin()
    row = db.read(txn, "t", (key,))
    db.abort(txn)
    assert txn.stats.log_bytes == 0
    return row


#: a transaction that reads row ``key`` of ``t`` and changes nothing
READS = {
    "serializable": lambda db, key: db.session().read("t", (key,)),
    "read_committed": lambda db, key: db.session(
        isolation="read_committed"
    ).read("t", (key,)),
    "scan": lambda db, key: next(
        (row for row in db.session().scan("t") if row["id"] == key), None
    ),
    "select": lambda db, key: next(
        iter(db.execute(f"SELECT * FROM t WHERE id = {key}")), None
    ),
    "run": lambda db, key: db.session().run(lambda s: s.read("t", (key,))),
    "aborted": aborted_read,
}


class CrashMachine(RuleBasedStateMachine):
    @initialize(
        strategy=st.sampled_from(["escrow", "xlock"]),
        frames=st.integers(2, 4),
        mode=st.sampled_from(["immediate", "commit_fold", "deferred"]),
    )
    def build(self, strategy, frames, mode):
        self.mode = mode
        self.config = dict(
            aggregate_strategy=strategy, btree_order=4,
            buffer_pool_frames=frames, page_size=256, maintenance_mode=mode,
        )
        self.created = []  # DDL names, in the order they were built
        self.committed = {"t": {}, "p": {}}  # table -> key -> row dict
        self.history = [(0, copied(self.committed))]  # (COMMIT LSN, tables)
        #: deferred views caught up with the bases at the log tail
        #: ``caught_up`` (``None``: not since a statement skipped them)
        self.caught_up = 0
        self.locks = []  # the current statement's lock_acquire events
        self.held = set()  # what its transaction held before it
        self._adopt(self._engine())

    def _engine(self):
        """A schema-only engine: the tables, ``by_g`` and every object
        ``create`` built, over no rows (so nothing is logged)."""
        db = Database(EngineConfig(**self.config))
        db.create_table("t", ("id", "g", "amount", "v"), ("id",))
        db.create_table("p", ("pid", "cat"), ("pid",))
        db.create_view(AggregateView(
            "by_g", "t", group_by=("g",),
            aggregates=[
                AggregateSpec.count("n"),
                AggregateSpec.sum_of("total", "amount"),
            ],
        ))
        for name in self.created:
            run_ddl(db, name)
        return db

    def _adopt(self, db):
        """Continue on ``db``, just started or recovered: no transaction
        survives, the reference is the last committed state, and the
        footprint, the envelope scan and the write timeline start over."""
        self.db = db
        self.txn = self.pending = self.savepoint = self.reader = None
        self.committed = copied(self.history[-1][1])
        self.session = db.session()
        if not db.tracer.enabled:
            db.tracer.enable()
            db.tracer.listeners.append(
                lambda e: e.name == "lock_acquire" and self.locks.append(e)
            )
        self.words, self.last, self.unchecked, self.scanned = {}, {}, set(), 0
        self._scan_log()
        self.ended_by_recovery = set(self.words)
        self._after_ddl()

    def _after_ddl(self):
        """The catalog changed: judge statements by its footprint, and
        let crashes cut back no further than here (DDL is not logged)."""
        self.created = [
            name for name in self.created if self.db.catalog.has_view(name)
        ]
        self.analyzer = StaticAnalyzer.configured(
            self.db.catalog, self.db.config
        )
        self._watch_store()

    def _watch_store(self):
        """A fresh timeline over the current store: ``(durable LSN at the
        write, page id, image or None for a drop)``."""
        db = self.db
        self.base = db.indexes.store.snapshot()
        self.floor = db.log.flushed_lsn
        self.timeline = []
        db.indexes.store.write_listener = lambda pid, data: self.timeline.append(
            (db.log.flushed_lsn, pid, data)
        )

    def rows(self, table="t"):
        return (self.pending if self.txn is not None else self.committed)[table]

    # ------------------------------------------------------------------
    # statements: in the open transaction, or autocommitted
    # ------------------------------------------------------------------

    def _statement(self, table, op, apply, change):
        """Run ``apply(txn)``, one row's ``op`` on ``table``, in the open
        transaction or autocommitted, and ``change(rows)`` on the
        reference rows it writes."""
        self.caught_up = None
        self._locks_from_here()
        if self.txn is not None:
            apply(self.txn)
            change(self.pending[table])
        else:
            tail = self.db.log.tail_lsn()
            with self.db.session() as session:
                apply(session.current_transaction)
            change(self.committed[table])
            self._committed(tail)
        self._locks_lie_inside(self.analyzer.explain(op, table))

    def _locks_from_here(self):
        self.locks.clear()
        self.held = {
            resource for resource, _ in self.db.locks.locks_of(
                self.txn.txn_id
            )
        } if self.txn is not None else set()

    def _locks_lie_inside(self, report):
        """The locks the statement took lie inside ``report``'s
        footprint. Converting a lock an earlier statement took traces
        the supremum of both requests — not this statement's own — so
        such a conversion is left out."""
        taken = [
            event.as_dict()["fields"] for event in self.locks
            if not (event.fields["conversion"]
                    and event.fields["resource"] in self.held)
        ]
        assert set(lock_triples(taken)) <= predicted_locks(report)

    def _committed(self, tail_before):
        """A transaction ended in COMMIT: its rows are the committed ones,
        as of its COMMIT LSN (a transaction that logged nothing has no
        COMMIT record and changed nothing)."""
        if self.db.log.tail_lsn() != tail_before:
            self.history.append((self.db.log.tail_lsn(), copied(self.committed)))

    @rule(rows=st.lists(st.tuples(ids, groups, amounts, values), max_size=4))
    def insert(self, rows):
        for key, g, amount, v in rows:
            if key not in self.rows():
                row = {"id": key, "g": g, "amount": amount, "v": v}
                self._statement(
                    "t", "insert", lambda txn: self.db.insert(txn, "t", row),
                    lambda rows: rows.__setitem__(key, row),
                )

    @rule(key=ids, g=st.one_of(st.none(), groups), amount=amounts, v=values)
    def update(self, key, g, amount, v):
        if key not in self.rows():
            return
        changes = {"amount": amount, "v": v}
        if g is not None:
            changes["g"] = g
        self._statement(
            "t", "update",
            lambda txn: self.db.update(txn, "t", (key,), changes),
            lambda rows: rows.__setitem__(key, {**rows[key], **changes}),
        )

    @rule(keys=st.lists(ids, max_size=4))
    def delete(self, keys):
        for key in keys:
            if key in self.rows():
                self._statement(
                    "t", "delete", lambda txn: self.db.delete(txn, "t", (key,)),
                    lambda rows: rows.pop(key),
                )

    @rule(pid=groups, cat=st.one_of(st.none(), st.integers(0, 1)))
    def write_p(self, pid, cat):
        """Insert ``p``'s row ``pid``, re-categorise it, or (``cat`` None)
        delete it: the join views' other side."""
        db, present = self.db, pid in self.rows("p")
        if cat is None:
            if present:
                self._statement(
                    "p", "delete", lambda txn: db.delete(txn, "p", (pid,)),
                    lambda rows: rows.pop(pid),
                )
            return
        row = {"pid": pid, "cat": cat}
        if present:
            self._statement(
                "p", "update",
                lambda txn: db.update(txn, "p", (pid,), {"cat": cat}),
                lambda rows: rows.__setitem__(pid, row),
            )
        else:
            self._statement(
                "p", "insert", lambda txn: db.insert(txn, "p", row),
                lambda rows: rows.__setitem__(pid, row),
            )

    def _execute(self, sql, change, refused=False, params=()):
        """Run one SQL statement through ``Session.execute`` — in the
        open transaction or autocommitted — and ``change(rows)`` on the
        reference rows; a ``refused`` statement leaves everything as it
        was."""
        tail = self.db.log.tail_lsn()
        self._locks_from_here()
        if refused:
            with pytest.raises(StorageError):
                self.session.execute(sql, params)
            assert self.db.log.tail_lsn() == tail
        else:
            self.caught_up = None
            self.session.execute(sql, params)
            change(self.rows())
            if self.txn is None:
                self._committed(tail)
        self._locks_lie_inside(self.db.execute(f"EXPLAIN {sql}", params=params))

    @rule(rows=st.lists(st.tuples(sql_ids, groups, amounts, sql_values),
                        min_size=2, max_size=4), placeholders=st.booleans())
    def sql_insert(self, rows, placeholders):
        """One INSERT of rows that share groups: all go in, or — a key
        the table holds or the statement repeats — none does. Half the
        time the values are ``?`` parameters: the shape repeats across
        rebuilds and crashes, so cached plans meet them too."""
        keys = [key for key, _, _, _ in rows]
        if placeholders:
            values = ", ".join("(?, ?, ?, ?)" for _ in rows)
            params = tuple(value for row in rows for value in row)
        else:
            values = ", ".join(
                f"({key}, {g}, {amount}, {literal(v)})"
                for key, g, amount, v in rows
            )
            params = ()

        def change(table):
            for key, g, amount, v in rows:
                table[key] = {"id": key, "g": g, "amount": amount, "v": v}

        self._execute(
            f"INSERT INTO t (id, g, amount, v) VALUES {values}", change,
            refused=len(set(keys)) < len(keys) or not set(keys).isdisjoint(
                self.rows()
            ), params=params,
        )

    @rule(low=sql_ids, high=sql_ids, placeholders=st.booleans())
    def sql_update(self, low, high, placeholders):
        """One UPDATE moving every row of an id range to the mirror
        group, ``g -> 3 - g``, its amount up by one (its bounds ``?``
        parameters half the time)."""
        def change(table):
            for key, row in table.items():
                if low <= key <= high:
                    table[key] = {
                        **row, "g": 3 - row["g"], "amount": row["amount"] + 1,
                    }

        bounds, params = (("?", "?"), (low, high)) if placeholders else (
            (low, high), ()
        )
        self._execute(
            "UPDATE t SET g = 3 - g, amount = amount + 1 "
            "WHERE id >= {} AND id <= {}".format(*bounds), change,
            params=params,
        )

    # ------------------------------------------------------------------
    # transaction boundaries
    # ------------------------------------------------------------------

    @precondition(lambda self: self.txn is None)
    @rule()
    def begin(self):
        self.txn = self.session.begin()
        self.pending = copied(self.committed)

    @precondition(lambda self: self.txn is not None)
    @rule()
    def commit(self):
        tail = self.db.log.tail_lsn()
        self.db.commit(self.txn)
        self.committed, self.txn, self.pending = self.pending, None, None
        self.savepoint = None
        self._committed(tail)

    @precondition(lambda self: self.txn is not None)
    @rule()
    def abort(self):
        self.db.abort(self.txn)
        self.txn = self.pending = self.savepoint = None

    @precondition(lambda self: self.txn is not None)
    @rule()
    def take_savepoint(self):
        self.savepoint = (self.db.savepoint(self.txn), copied(self.pending))

    @precondition(lambda self: self.savepoint is not None)
    @rule()
    def rollback_to_savepoint(self):
        token, rows = self.savepoint
        self.db.rollback_to(self.txn, token)
        self.pending = copied(rows)

    @precondition(lambda self: self.txn is not None)
    @rule(outcome=st.sampled_from(["commit", "abort", "crash"]))
    def prepared_branch(self, outcome):
        """Vote yes on the open transaction as a 2PC branch, then commit,
        abort, or crash: recovery repeats the branch's history — its rows
        are back, locked — and it stays in doubt until presumed abort."""
        db, txn = self.db, self.txn
        event(f"prepared branch: {outcome}")
        db.participant.prepare(txn, f"G{txn.txn_id}")
        assert db.log.flushed_lsn == db.log.tail_lsn()  # the vote is durable
        if outcome == "commit":
            return self.commit()
        if outcome == "abort":
            return self.abort()
        pending = self.pending
        self._crash(len(self.timeline), db.log.flushed_lsn, settle=False)
        db = self.db
        assert db.participant.in_doubt_transactions() == {
            txn.txn_id: f"G{txn.txn_id}"
        }
        self._tables_are(pending)
        db.participant.resolve_in_doubt(txn.txn_id, "abort")
        assert db.participant.in_doubt_transactions() == {}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    @rule(name=st.sampled_from(sorted(DDL)), online=st.booleans(),
          crash=st.sampled_from(
              [None, None, "snapshot:0", "snapshot:2", "flip", "post_commit"]
          ))
    def create(self, name, online, crash):
        """Build ``name`` over the rows that exist, locked or online,
        optionally crashed at a ``view.online_build`` phase."""
        db = self.db
        tail = db.log.tail_lsn()
        if db.catalog.has_view(name):
            index = db.index(name)
            entries = list(index.scan(include_ghosts=True))
            with pytest.raises(CatalogError):
                run_ddl(db, name, online)
            event("create: name in use")
            assert db.index(name) is index  # the original is intact
            assert list(index.scan(include_ghosts=True)) == entries
            assert db.log.tail_lsn() == tail
            return
        bases = {table_resource(table) for table in (
            ("t", "p") if "JOIN" in str(DDL[name]) else ("t",)
        )}
        written = self.txn is not None and any(
            resource in bases and not mode_compatible(mode, LockMode.S)
            for resource, mode in db.locks.locks_of(self.txn.txn_id)
        )
        if crash is not None:
            db.install_fault_injector(FaultInjector(seed=0)).arm(
                "view.online_build", times=1, match=crash
            )
        try:
            view = run_ddl(db, name, online)
        except SimulatedCrash as caught:
            db.install_fault_injector(None)
            event(f"create: crashed at {crash}")
            assert caught.committed is (crash == "post_commit")
            self._crash(len(self.timeline), db.log.flushed_lsn)
            assert self.db.catalog.has_view(name) is caught.committed
            assert not self.db.online_builds.active
            if caught.committed:
                self.created.append(name)
            return
        except LockTimeoutError:
            db.install_fault_injector(None)
            event("create: refused under an open writer")
            assert written  # only the open writer's table refuses it
            assert not db.catalog.has_view(name)
            assert name not in db.index_names()
            assert not db.online_builds.active
            return
        db.install_fault_injector(None)
        assert not written
        assert db.check_view_consistency(name) == []
        empty = not any(expected_index_contents(
            view, lambda table: db.index(table).rows()
        ).values())
        event(f"create: built{' empty' if empty else ''}")
        if empty:
            assert db.log.tail_lsn() == tail  # a view that computes empty
        self.created.append(name)
        self._after_ddl()

    # ------------------------------------------------------------------
    # readers: they read the committed state and log nothing
    # ------------------------------------------------------------------

    @rule(kind=st.sampled_from(sorted(READS)), key=ids)
    def reader(self, kind, key):
        db = self.db
        before = len(db.log), db.log.flush_count
        event(f"reader: {kind}")
        try:
            got = READS[kind](db, key)
        except LockTimeoutError:
            assert self.txn is not None  # only the open writer blocks it
        else:
            want = self.committed["t"].get(key)
            assert (got is None) if want is None else same(dict(got), want)
        assert (len(db.log), db.log.flush_count) == before

    @precondition(lambda self: self.reader is None)
    @rule()
    def open_snapshot(self):
        self.reader = (
            self.db.begin(isolation="snapshot"), self.history[-1][0]
        )

    @precondition(lambda self: self.reader is not None)
    @rule()
    def snapshot_read(self):
        """The snapshot reader reads each table as ``history`` replayed
        to the last COMMIT before its start (reenactment), then commits
        without appending or flushing anything."""
        db, (txn, as_of) = self.db, self.reader
        before = len(db.log), db.log.flush_count
        want = [tables for lsn, tables in self.history if lsn <= as_of][-1]
        for table, key in KEYS.items():
            got = {row[key]: dict(row) for row in db.scan(txn, table)}
            assert got.keys() == want[table].keys(), table
            for k, row in want[table].items():
                assert same(got[k], row), (table, k, got[k], row)
        db.commit(txn)
        self.reader = None
        event("snapshot read")
        assert (len(db.log), db.log.flush_count) == before

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------

    @precondition(lambda self: self.txn is None)
    @rule()
    def ghost_cleanup(self):
        self.db.run_ghost_cleanup()

    @precondition(lambda self: self.txn is None)
    @rule()
    def refresh(self):
        for view in self.db.catalog.views():
            self.db.refresh_view(view.name)
        assert self.db.deferred.pending_count() == 0
        self._views_caught_up()

    @precondition(lambda self: self.txn is None)
    @rule(data=st.data())
    def quarantine_and_rebuild(self, data):
        name = data.draw(st.sampled_from(["by_g", *self.created]))
        self.db.quarantine_view(name)
        self.db.rebuild_view(name)
        assert self.db.check_view_consistency(name) == []

    def _views_caught_up(self):
        assert self.db.check_all_views() == []
        self.caught_up = self.db.log.tail_lsn()

    @rule()
    def checkpoint(self):
        self.db.take_checkpoint()

    # ------------------------------------------------------------------
    # crashes, faults and restores
    # ------------------------------------------------------------------

    @rule(data=st.data(), interrupt=st.sampled_from(
        [None, None, "recovery.analysis", "recovery.redo", "recovery.undo"]
    ), after=st.integers(0, 4))
    def crash_and_recover(self, data, interrupt, after):
        timeline = self.timeline
        kept = data.draw(st.integers(0, len(timeline)), label="writes kept")
        low = timeline[kept - 1][0] if kept else self.floor
        high = (
            timeline[kept][0] if kept < len(timeline)
            else self.db.log.flushed_lsn
        )
        cut = data.draw(st.integers(low, high), label="log cut")
        self._crash(kept, cut, interrupt, after)

    def _crash(self, kept, cut, interrupt=None, after=0, settle=True):
        """Crash with the first ``kept`` write-backs on the device and the
        log durable to ``cut``, then recover — re-entering recovery if
        the ``interrupt`` site fires in it after ``after`` hits — and
        (``settle``) abort every branch left in doubt, as a coordinator
        that finds no decision presumes."""
        db = self.db
        images = dict(self.base)
        for _, page_id, image in self.timeline[:kept]:
            if image is None:
                images.pop(page_id, None)
            else:
                images[page_id] = image
        db.log.flushed_lsn = cut
        db.log.crash()
        db.indexes.store.restore(images)
        if interrupt is not None:
            db.install_fault_injector(FaultInjector(seed=0)).arm(
                interrupt, after=after, times=1
            )
        try:
            report = db.restart.recover()
        except SimulatedCrash:
            report = db.restart.crash_and_recover()
            assert report.restarts == 1
            event(f"recovery re-entered after {interrupt}")
        db.install_fault_injector(None)
        self.history = [(lsn, rows) for lsn, rows in self.history if lsn <= cut]
        if self.caught_up is not None and self.caught_up > cut:
            self.caught_up = None  # the catching up is cut off
        self._adopt(db)
        if settle:
            for txn_id in sorted(db.participant.in_doubt_transactions()):
                db.participant.resolve_in_doubt(txn_id, "abort")

    @precondition(lambda self: self.txn is None)
    @rule(site=st.sampled_from(FAULT_SITES), key=ids, g=groups,
          amount=amounts)
    def fault(self, site, key, g, amount):
        """Arm ``site`` — every hit fires — for one autocommitted write
        (insert row ``key``, or delete it if it exists) or, for
        ``cleanup.interrupt``, one cleaner pass."""
        db = self.db
        event(f"fault: {site}")
        injector = db.install_fault_injector(FaultInjector(seed=0))
        injector.arm(site)
        if site == "cleanup.interrupt":
            requeued = db.cleaner.requeued
            assert db.run_ghost_cleanup() == 0
            # every candidate still in its index went back on the queue
            assert len(db.cleanup) == db.cleaner.requeued - requeued
            db.install_fault_injector(None)
            return
        rows = self.committed["t"]
        if key in rows:
            write, change = (lambda txn: db.delete(txn, "t", (key,)),
                             lambda: rows.pop(key))
        else:
            row = {"id": key, "g": g, "amount": amount, "v": None}
            write, change = (lambda txn: db.insert(txn, "t", row),
                             lambda: rows.__setitem__(key, row))
        tail, txns = db.log.tail_lsn(), []
        self.caught_up = None
        try:
            with db.session() as session:
                txns.append(session.current_transaction)
                write(session.current_transaction)
        except FaultInjected as caught:
            db.install_fault_injector(None)
            assert caught.site == site == "wal.append"
            assert injector.fired[site] == 1  # the rollback is immune
            assert db.log.tail_lsn() > tail  # it failed after appending
            assert db.active_transactions() == (
                [self.reader[0]] if self.reader is not None else []
            )
            assert db.locks.active_resources() == []
        except SimulatedCrash as caught:
            db.install_fault_injector(None)
            assert caught.site == site != "wal.append"
            assert caught.committed is (site == "txn.commit.after")
            if site == "wal.torn_tail":  # all but the COMMIT is durable
                assert db.log.flushed_lsn == db.log.tail_lsn() - 1
            (txn,) = txns
            durable = [
                record.lsn for record in db.log.records(tail + 1)
                if record.type is RecordType.COMMIT
                and record.txn_id == txn.txn_id
                and record.lsn <= db.log.flushed_lsn
            ]
            assert bool(durable) is caught.committed
            if durable:
                change()
                self.history.append((durable[0], copied(self.committed)))
            self._crash(len(self.timeline), db.log.flushed_lsn)
        else:
            db.install_fault_injector(None)
            assert site == "view.midapply"  # no view maintained: no hit
            change()
            self._committed(tail)

    @rule()
    def restore_from_segments(self):
        """Dump the WAL as segment files and restore them into a
        schema-only engine (an open transaction's flushed records make
        it a loser there); the machine continues on the restored
        engine."""
        with tempfile.TemporaryDirectory() as directory:
            self.db.dump_wal_segments(directory)
            records = len(self.db.log)
            fresh = self._engine()
            report = fresh.load_wal_segments_and_recover(directory)
        assert (report.pages_loaded, report.redo_skipped) == (0, 0)
        assert report.analyzed_records == records  # the whole log replays
        event("restored from segments")
        self._adopt(fresh)

    # ------------------------------------------------------------------
    # the oracle
    # ------------------------------------------------------------------

    def _tables_are(self, tables):
        for table, key in KEYS.items():
            got = {
                k[0]: dict(record.current_row)
                for k, record in self.db.index(table).scan()
            }
            want = tables[table]
            assert got.keys() == want.keys(), table
            for k, row in want.items():
                assert same(got[k], row), (table, k, got[k], row)

    @invariant()
    def tables_are_the_reference(self):
        self._tables_are(self.pending if self.txn is not None else self.committed)

    def views_are_exact(self):
        if self.mode == "commit_fold":
            return self.txn is None
        if self.mode == "deferred":
            return self.caught_up is not None
        return True

    @invariant()
    def views_and_storage_are_clean(self):
        exact = self.views_are_exact()
        damage = [
            found for found in self.db.check_integrity().damage
            if exact or found.kind != "view"
        ]
        assert damage == []

    def _scan_log(self):
        """Read the records appended since the last scan into ``words``
        (txn id -> one letter per record), checking the backchain: a
        transaction's first record has no ``prev_lsn``, every other one
        points at its predecessor."""
        for record in self.db.log.records(self.scanned + 1):
            self.scanned = record.lsn
            txn_id = record.txn_id
            if txn_id is None:
                continue
            assert record.prev_lsn == self.last.get(txn_id), record
            self.last[txn_id] = record.lsn
            self.words[txn_id] = (
                self.words.get(txn_id, "") + LETTER.get(record.type, "R")
            )
            self.unchecked.add(txn_id)

    @invariant()
    def every_transaction_matches_the_envelope(self):
        self._scan_log()
        open_ = {self.txn.txn_id} if self.txn is not None else set()
        for txn_id in sorted(self.unchecked):
            word = self.words[txn_id]
            if txn_id in open_:
                assert OPEN.fullmatch(word), (txn_id, word)
                continue
            grammar = (
                RECOVERED if txn_id in self.ended_by_recovery else GRAMMAR
            )
            assert grammar.fullmatch(word), (txn_id, word)
            self.unchecked.discard(txn_id)


CrashMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None,
)
TestCrashMachine = CrashMachine.TestCase
