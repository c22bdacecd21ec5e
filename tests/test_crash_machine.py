"""A generated crash machine over one paged engine.

Hypothesis drives a :class:`RuleBasedStateMachine` through typed DML
(every value tag a row can hold), multi-row SQL statements through
``Session.execute`` (an INSERT whose rows share groups, an UPDATE moving
rows between groups; literals or ``?`` parameters, so prepared plans
outlive rebuilds and crashes), commits, aborts, savepoint rollbacks,
ghost cleanup, checkpoints, crashes, view refreshes and quarantine
rebuilds, on an engine small enough that every leaf mechanism engages:
order-4 trees (leaves split, borrow and merge), a 2-4 leaf dirty table
(write-backs mid-transaction), both aggregate strategies and every
maintenance mode.

A crash keeps a prefix of the page store's write timeline and a log
prefix consistent with it: cut between two write-backs, at any LSN from
what was durable at the last one kept to what was durable at the next
one. The reference is a dict of the committed rows, remembered at every
COMMIT LSN. After every step the table equals the reference and the
integrity checker finds no structure or storage damage. Every view
equals its recomputation whenever its mode promises it: at every step
under ``immediate``, with no transaction open under ``commit_fold``, and
under ``deferred`` once a refresh has caught up with every skipped
change. Every DML statement takes only locks its ``EXPLAIN`` footprint
lists.

``REPRO_MACHINE_EXAMPLES`` sets the example count (``make machine`` runs
more than tier-1 does).
"""

import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis.static import StaticAnalyzer
from repro.common import StorageError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView
from tests.test_sql_access_paths import lock_triples, predicted_locks
from tests.test_wal_codec import same, values

EXAMPLES = int(os.environ.get("REPRO_MACHINE_EXAMPLES", "60"))

ids = st.integers(0, 11)
groups = st.integers(0, 3)
amounts = st.integers(-5, 20)
sql_ids = st.integers(0, 23)  # wider, so most multi-row INSERTs go in
sql_values = st.one_of(st.none(), amounts, st.text("abc", max_size=3))


def literal(value):
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else str(value)


class CrashMachine(RuleBasedStateMachine):
    @initialize(
        strategy=st.sampled_from(["escrow", "xlock"]),
        frames=st.integers(2, 4),
        mode=st.sampled_from(["immediate", "commit_fold", "deferred"]),
    )
    def build(self, strategy, frames, mode):
        self.mode = mode
        self.db = Database(EngineConfig(
            aggregate_strategy=strategy, btree_order=4,
            buffer_pool_frames=frames, page_size=256,
            maintenance_mode=mode,
        ))
        self.db.create_table("t", ("id", "g", "amount", "v"), ("id",))
        self.db.create_view(AggregateView(
            "by_g", "t", group_by=("g",),
            aggregates=[
                AggregateSpec.count("n"), AggregateSpec.sum_of("total", "amount"),
            ],
        ))
        self.committed = {}  # id -> row dict
        self.history = [(0, {})]  # (COMMIT LSN, committed rows after it)
        self.session = self.db.session()
        self.txn = None
        self.pending = None  # the open transaction's view of the rows
        self.savepoint = None  # (token, rows at the savepoint)
        self.analyzer = StaticAnalyzer.configured(
            self.db.catalog, self.db.config
        )
        self.locks = []  # the current statement's lock_acquire events
        self.held = set()  # what its transaction held before it
        self.db.tracer.enable()
        self.db.tracer.listeners.append(
            lambda e: e.name == "lock_acquire" and self.locks.append(e)
        )
        #: deferred views caught up with the bases at the log tail
        #: ``caught_up`` (``None``: not since a statement skipped them)
        self.caught_up = 0
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

    def rows(self):
        return self.pending if self.txn is not None else self.committed

    # ------------------------------------------------------------------
    # statements: in the open transaction, or autocommitted
    # ------------------------------------------------------------------

    def _statement(self, op, apply, change):
        """Run ``apply(txn)``, one row's ``op``, in the open transaction
        or autocommitted, and ``change(rows)`` on the reference rows it
        writes."""
        self.caught_up = None
        self._locks_from_here()
        if self.txn is not None:
            apply(self.txn)
            change(self.pending)
        else:
            tail = self.db.log.tail_lsn()
            with self.db.session() as session:
                apply(session.current_transaction)
            change(self.committed)
            self._committed(tail)
        self._locks_lie_inside(self.analyzer.explain(op, "t"))

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
            self.history.append((self.db.log.tail_lsn(), dict(self.committed)))

    @rule(rows=st.lists(st.tuples(ids, groups, amounts, values), max_size=4))
    def insert(self, rows):
        for key, g, amount, v in rows:
            if key not in self.rows():
                row = {"id": key, "g": g, "amount": amount, "v": v}
                self._statement(
                    "insert", lambda txn: self.db.insert(txn, "t", row),
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
            "update", lambda txn: self.db.update(txn, "t", (key,), changes),
            lambda rows: rows.__setitem__(key, {**rows[key], **changes}),
        )

    @rule(keys=st.lists(ids, max_size=4))
    def delete(self, keys):
        for key in keys:
            if key in self.rows():
                self._statement(
                    "delete", lambda txn: self.db.delete(txn, "t", (key,)),
                    lambda rows: rows.pop(key),
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
        self.pending = dict(self.committed)

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
        self.savepoint = (self.db.savepoint(self.txn), dict(self.pending))

    @precondition(lambda self: self.savepoint is not None)
    @rule()
    def rollback_to_savepoint(self):
        token, rows = self.savepoint
        self.db.rollback_to(self.txn, token)
        self.pending = dict(rows)

    # ------------------------------------------------------------------
    # housekeeping, crash and recovery
    # ------------------------------------------------------------------

    @precondition(lambda self: self.txn is None)
    @rule()
    def ghost_cleanup(self):
        self.db.run_ghost_cleanup()

    @precondition(lambda self: self.txn is None)
    @rule()
    def refresh(self):
        self.db.refresh_view("by_g")
        assert self.db.deferred.pending_count() == 0
        self._views_caught_up()

    @precondition(lambda self: self.txn is None)
    @rule()
    def quarantine_and_rebuild(self):
        self.db.quarantine_view("by_g")
        self.db.rebuild_view("by_g")
        self._views_caught_up()

    def _views_caught_up(self):
        assert self.db.check_all_views() == []
        self.caught_up = self.db.log.tail_lsn()

    @rule()
    def checkpoint(self):
        self.db.take_checkpoint()

    @rule(data=st.data())
    def crash_and_recover(self, data):
        db, timeline = self.db, self.timeline
        kept = data.draw(st.integers(0, len(timeline)), label="writes kept")
        low = timeline[kept - 1][0] if kept else self.floor
        high = timeline[kept][0] if kept < len(timeline) else db.log.flushed_lsn
        cut = data.draw(st.integers(low, high), label="log cut")
        images = dict(self.base)
        for _, page_id, image in timeline[:kept]:
            if image is None:
                images.pop(page_id, None)
            else:
                images[page_id] = image
        db.log.flushed_lsn = cut
        db.log.crash()
        db.indexes.store.restore(images)
        db.restart.recover()
        self.history = [(lsn, rows) for lsn, rows in self.history if lsn <= cut]
        self.committed = dict(self.history[-1][1])
        if self.caught_up is not None and self.caught_up > cut:
            self.caught_up = None  # the catching up is cut off
        self.txn = self.pending = self.savepoint = None
        self.session = db.session()  # its transaction died with the crash
        self._watch_store()

    # ------------------------------------------------------------------
    # the oracle
    # ------------------------------------------------------------------

    @invariant()
    def table_is_the_reference(self):
        got = {
            key[0]: dict(record.current_row)
            for key, record in self.db.index("t").scan()
        }
        want = self.rows()
        assert got.keys() == want.keys()
        for key, row in want.items():
            assert same(got[key], row), (key, got[key], row)

    def views_are_exact(self):
        if self.mode == "commit_fold":
            return self.txn is None
        if self.mode == "deferred":
            return self.caught_up is not None
        return True

    @invariant()
    def views_and_storage_are_clean(self):
        exact = self.views_are_exact()
        if exact:
            assert self.db.check_all_views() == []
        damage = [
            found for found in self.db.check_integrity().damage
            if exact or found.kind != "view"
        ]
        assert damage == []


CrashMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None,
)
TestCrashMachine = CrashMachine.TestCase
