"""Deferred maintenance across every view kind."""

import pytest

from repro.common import LockTimeoutError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec, col_ge
from repro.views import AggregateView, JoinAggregateView, JoinView, ProjectionView


def full_schema_db(mode="deferred"):
    db = Database(EngineConfig(maintenance_mode=mode))
    db.create_table("customers", ("cid", "region"), ("cid",))
    db.create_table("orders", ("oid", "cid", "amount"), ("oid",))
    txn = db.begin()
    db.insert(txn, "customers", {"cid": 1, "region": "eu"})
    db.insert(txn, "customers", {"cid": 2, "region": "us"})
    db.commit(txn)
    db.create_view(AggregateView(
        "by_cust",
        "orders",
        group_by=("cid",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    db.create_view(JoinView(
        "named",
        "orders",
        "customers",
        on=[("cid", "cid")],
        columns=("oid", "cid", "amount", "region"),
    ))
    db.create_view(JoinAggregateView(
        "by_region",
        "orders",
        "customers",
        on=[("cid", "cid")],
        group_by=("region",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    db.create_view(ProjectionView(
        "big",
        "orders",
        columns=("oid", "amount"),
        where=col_ge("amount", 50),
    ))
    return db


class TestDeferredAllKinds:
    def test_all_views_stale_then_fresh(self):
        db = full_schema_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 100})
        db.insert(txn, "orders", {"oid": 11, "cid": 2, "amount": 10})
        db.commit(txn)
        # everything is stale
        assert db.read_committed("by_cust", (1,)) is None
        assert db.read_committed("named", (10, 1)) is None
        assert db.read_committed("by_region", ("eu",)) is None
        assert db.read_committed("big", (10,)) is None
        assert db.deferred.pending_count() == 8  # 2 changes x 4 views
        corrections = db.refresh_all_views()
        # by_cust 2 groups; named 2 rows + 2 #right + 2 #leftfk;
        # by_region 2 groups + 2 #leftfk; big 1 row
        assert corrections == 13
        assert db.deferred.pending_count() == 0
        # everything is fresh and matches the oracle
        assert db.read_committed("by_cust", (1,))["t"] == 100
        assert db.read_committed("named", (10, 1))["region"] == "eu"
        assert db.read_committed("by_region", ("eu",))["t"] == 100
        assert db.read_committed("big", (10,)) is not None
        assert db.read_committed("big", (11,)) is None
        assert db.check_all_views() == []

    def test_deferred_updates_and_deletes(self):
        db = full_schema_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 100})
        db.commit(txn)
        db.refresh_all_views()
        txn = db.begin()
        db.update(txn, "orders", (10,), {"amount": 20})  # leaves 'big'
        db.commit(txn)
        txn = db.begin()
        db.delete(txn, "orders", (10,))
        db.commit(txn)
        db.refresh_all_views()
        db.run_ghost_cleanup()
        assert db.check_all_views() == []
        assert db.read_committed("by_region", ("eu",)) is None

    def test_immediate_mode_has_no_backlog(self):
        db = full_schema_db(mode="immediate")
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 100})
        db.commit(txn)
        assert db.deferred.pending_count() == 0
        assert db.check_all_views() == []


class TestRefreshAppliesOnlyWhatCommitted:
    """A refresh diffs every deferred view against a recomputation under
    S on its base tables. It used to replay a queue of statement changes
    kept outside the log and outside transactions, which applied changes
    that never committed and replayed join changes against base rows as
    they were later."""

    def refreshed(self, db):
        db.refresh_all_views()
        assert db.check_all_views() == []
        assert db.deferred.pending_count() == 0
        return db

    def test_an_aborted_insert_is_not_applied(self):
        db = full_schema_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 100})
        db.abort(txn)
        assert db.deferred.pending_count() == 4  # skipped, then rolled back
        self.refreshed(db)
        assert db.read_committed("by_cust", (1,)) is None

    def test_an_insert_rolled_back_to_a_savepoint_is_not_applied(self):
        db = full_schema_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 100})
        savepoint = db.savepoint(txn)
        db.insert(txn, "orders", {"oid": 11, "cid": 2, "amount": 70})
        db.rollback_to(txn, savepoint)
        db.commit(txn)
        self.refreshed(db)
        assert db.read_committed("by_cust", (1,))["t"] == 100
        assert db.read_committed("by_cust", (2,)) is None

    def test_a_recovery_losers_insert_is_not_applied(self):
        db = full_schema_db()
        loser = db.begin()
        db.insert(loser, "orders", {"oid": 10, "cid": 1, "amount": 100})
        db.log.flush()  # durable records, no COMMIT
        db.simulate_crash_and_recover()
        self.refreshed(db)
        assert db.read_committed("by_cust", (1,)) is None

    def test_an_open_writer_makes_refresh_raise_and_change_nothing(self):
        db = full_schema_db()
        writer = db.begin()
        db.insert(writer, "orders", {"oid": 10, "cid": 1, "amount": 100})
        records = len(db.log)
        with pytest.raises(LockTimeoutError):
            db.refresh_view("by_cust")
        assert len(db.log) == records
        assert db.index("by_cust").get_record((1,), include_ghost=True) is None
        assert db.deferred.pending_count("by_cust") == 1
        db.abort(writer)
        self.refreshed(db)
        assert db.read_committed("by_cust", (1,)) is None

    def test_a_join_aggregate_refresh_after_a_right_side_update(self):
        """Replayed against today's customers, the order moved to 'eu'
        on insert and again on the customer update, which drove 'us'
        below zero: an escrow violation after a change was dequeued, and
        the next refresh left the group missing for good."""
        db = full_schema_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 2, "amount": 100})
        db.commit(txn)
        txn = db.begin()
        db.update(txn, "customers", (2,), {"region": "eu"})
        db.commit(txn)
        self.refreshed(db)
        assert db.read_committed("by_region", ("eu",))["t"] == 100
        assert db.read_committed("by_region", ("us",)) is None
        assert db.read_committed("named", (10, 2))["region"] == "eu"
