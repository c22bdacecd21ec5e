"""A generated crash machine over one paged engine.

Hypothesis drives a :class:`RuleBasedStateMachine` through typed DML
(every value tag a row can hold), commits, aborts, savepoint rollbacks,
ghost cleanup, checkpoints and crashes, on an engine small enough that
every leaf mechanism engages: order-4 trees (leaves split, borrow and
merge), a 2-4 leaf dirty table (write-backs mid-transaction) and both
aggregate strategies.

A crash keeps a prefix of the page store's write timeline and a log
prefix consistent with it: cut between two write-backs, at any LSN from
what was durable at the last one kept to what was durable at the next
one. The reference is a dict of the committed rows, remembered at every
COMMIT LSN. After every step the table equals the reference, every view
equals its recomputation, and the integrity checker finds nothing.

``REPRO_MACHINE_EXAMPLES`` sets the example count (``make machine`` runs
more than tier-1 does).
"""

import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView
from tests.test_wal_codec import same, values

EXAMPLES = int(os.environ.get("REPRO_MACHINE_EXAMPLES", "60"))

ids = st.integers(0, 11)
groups = st.integers(0, 3)
amounts = st.integers(-5, 20)


class CrashMachine(RuleBasedStateMachine):
    @initialize(
        strategy=st.sampled_from(["escrow", "xlock"]),
        frames=st.integers(2, 4),
    )
    def build(self, strategy, frames):
        self.db = Database(EngineConfig(
            aggregate_strategy=strategy, btree_order=4,
            buffer_pool_frames=frames, page_size=256,
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
        self.txn = None
        self.pending = None  # the open transaction's view of the rows
        self.savepoint = None  # (token, rows at the savepoint)
        self._watch_store()

    def _watch_store(self):
        """A fresh timeline over the current store: ``(durable LSN at the
        write, page id, image or None for a drop)``."""
        db = self.db
        self.base = db._store.snapshot()
        self.floor = db.log.flushed_lsn
        self.timeline = []
        db._store.write_listener = lambda pid, data: self.timeline.append(
            (db.log.flushed_lsn, pid, data)
        )

    def rows(self):
        return self.pending if self.txn is not None else self.committed

    # ------------------------------------------------------------------
    # statements: in the open transaction, or autocommitted
    # ------------------------------------------------------------------

    def _statement(self, apply, change):
        """Run ``apply(txn)`` in the open transaction, or autocommitted,
        and ``change(rows)`` on the reference rows it writes."""
        if self.txn is not None:
            apply(self.txn)
            change(self.pending)
            return
        tail = self.db.log.tail_lsn()
        with self.db.session() as session:
            apply(session.current_transaction)
        change(self.committed)
        self._committed(tail)

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
                    lambda txn: self.db.insert(txn, "t", row),
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
            lambda txn: self.db.update(txn, "t", (key,), changes),
            lambda rows: rows.__setitem__(key, {**rows[key], **changes}),
        )

    @rule(keys=st.lists(ids, max_size=4))
    def delete(self, keys):
        for key in keys:
            if key in self.rows():
                self._statement(
                    lambda txn: self.db.delete(txn, "t", (key,)),
                    lambda rows: rows.pop(key),
                )

    # ------------------------------------------------------------------
    # transaction boundaries
    # ------------------------------------------------------------------

    @precondition(lambda self: self.txn is None)
    @rule()
    def begin(self):
        self.txn = self.db.begin()
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
        db._store.restore(images)
        db._rebuild_from_log()
        self.history = [(lsn, rows) for lsn, rows in self.history if lsn <= cut]
        self.committed = dict(self.history[-1][1])
        self.txn = self.pending = self.savepoint = None
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

    @invariant()
    def views_and_storage_are_clean(self):
        assert self.db.check_all_views() == []
        report = self.db.check_integrity()
        assert report.clean, report.damage


CrashMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None,
)
TestCrashMachine = CrashMachine.TestCase
