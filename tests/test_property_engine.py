"""Whole-engine property tests.

The strongest invariant this system offers: **whatever sequence of
transactions runs — commits, aborts, interleavings, crashes — every
indexed view equals the from-scratch recomputation over its base tables.**
Hypothesis generates operation scripts; the oracle in
:mod:`repro.query.executor` checks the outcome.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Database, EngineConfig
from repro.common import StorageError, TransactionAborted
from repro.query import AggregateSpec, col_ge
from repro.views import AggregateView, ProjectionView


def build_db(strategy):
    db = Database(EngineConfig(aggregate_strategy=strategy))
    db.create_table("t", ("id", "g", "x"), ("id",))
    db.create_view(AggregateView(
        "agg",
        "t",
        group_by=("g",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("s", "x")],
    ))
    db.create_view(ProjectionView(
        "big",
        "t",
        columns=("id", "x"),
        where=col_ge("x", 5),
    ))
    return db


ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "commit", "abort"]),
        st.integers(min_value=0, max_value=8),  # id
        st.integers(min_value=0, max_value=3),  # group
        st.integers(min_value=-10, max_value=10),  # x
    ),
    min_size=1,
    max_size=60,
)


def run_script(db, script, crash_points=(), run_cleanup=False):
    """Single-transaction-at-a-time script runner; each op is its own
    transaction unless commit/abort batching markers intervene."""
    txn = None
    for i, (kind, row_id, group, x) in enumerate(script):
        if txn is None:
            txn = db.begin()
        try:
            if kind == "insert":
                db.insert(txn, "t", {"id": row_id, "g": group, "x": x})
            elif kind == "delete":
                db.delete(txn, "t", (row_id,))
            elif kind == "update":
                db.update(txn, "t", (row_id,), {"g": group, "x": x})
            elif kind == "commit":
                db.commit(txn)
                txn = None
            else:
                db.abort(txn)
                txn = None
        except StorageError:
            pass  # duplicate insert / missing key: statement fails, txn lives
        except TransactionAborted:
            txn = None
        if i in crash_points:
            if txn is not None:
                db.log.flush()
            db.simulate_crash_and_recover()
            txn = None
        if run_cleanup and i % 7 == 6:
            db.run_ghost_cleanup()
    if txn is not None:
        db.commit(txn)


class TestViewsAlwaysConsistent:
    @settings(max_examples=60, deadline=None)
    @given(ops, st.sampled_from(["escrow", "xlock"]))
    def test_random_scripts_keep_views_consistent(self, script, strategy):
        db = build_db(strategy)
        run_script(db, script, run_cleanup=True)
        db.run_ghost_cleanup()
        assert db.check_all_views() == []

    @settings(max_examples=40, deadline=None)
    @given(ops, st.sampled_from(["escrow", "xlock"]), st.integers(0, 59))
    def test_crash_anywhere_keeps_views_consistent(self, script, strategy, crash_at):
        db = build_db(strategy)
        run_script(db, script, crash_points={crash_at})
        db.run_ghost_cleanup()
        assert db.check_all_views() == []

    @settings(max_examples=30, deadline=None)
    @given(ops)
    def test_strategies_agree(self, script):
        """Escrow and xlock must produce identical visible view contents
        for identical serial scripts."""
        dbs = {s: build_db(s) for s in ("escrow", "xlock")}
        for db in dbs.values():
            run_script(db, script)
            db.run_ghost_cleanup()
        esc = {
            k: r
            for k, r in dbs["escrow"].index("agg").scan()
            if r.current_row["n"] != 0
        }
        xl = {
            k: r
            for k, r in dbs["xlock"].index("agg").scan()
            if r.current_row["n"] != 0
        }
        assert {k: r.current_row for k, r in esc.items()} == {
            k: r.current_row for k, r in xl.items()
        }

    @settings(max_examples=30, deadline=None)
    @given(ops, st.sampled_from(["escrow", "xlock"]))
    def test_recovery_reproduces_pre_crash_state(self, script, strategy):
        db = build_db(strategy)
        run_script(db, script)
        before = {
            key: rec.current_row
            for key, rec in db.index("agg").scan()
            if rec.current_row["n"] != 0
        }
        db.simulate_crash_and_recover()
        after = {
            key: rec.current_row
            for key, rec in db.index("agg").scan()
            if rec.current_row["n"] != 0
        }
        assert before == after

    @settings(max_examples=25, deadline=None)
    @given(ops, st.sampled_from(["escrow", "xlock"]))
    def test_btree_invariants_hold(self, script, strategy):
        db = build_db(strategy)
        run_script(db, script, run_cleanup=True)
        db.run_ghost_cleanup()
        for name in db.index_names():
            db.index(name).check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(ops, st.sampled_from(["escrow", "xlock"]))
    def test_dump_restore_equals_crash_recovery(self, script, strategy):
        """Restoring from a WAL dump in a fresh database reproduces the
        same state a crash/recover in the original produces."""
        import tempfile

        db = build_db(strategy)
        run_script(db, script)
        with tempfile.TemporaryDirectory() as tmp:
            db.dump_wal_segments(tmp)
            fresh = build_db(strategy)
            fresh.load_wal_segments_and_recover(tmp)
        db.simulate_crash_and_recover()
        original = {
            key: rec.current_row for key, rec in db.index("agg").scan()
        }
        restored = {
            key: rec.current_row for key, rec in fresh.index("agg").scan()
        }
        assert original == restored
        assert fresh.check_all_views() == []
