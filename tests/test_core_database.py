"""Engine-level tests: DML, view maintenance, rollback, reads."""

import pytest

from repro.common import Row, StorageError
from repro.common.keys import KeyRange
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec, col_ge
from repro.views import AggregateView


def sales_db(strategy="escrow", **config_kwargs):
    db = Database(EngineConfig(aggregate_strategy=strategy, **config_kwargs))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "by_product",
        "sales",
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("total", "amount"),
        ],
    ))
    return db


def add_sale(db, txn, sale_id, product, amount):
    db.insert(txn, "sales", {"id": sale_id, "product": product, "amount": amount})


class TestBasicDml:
    def test_insert_and_read(self):
        db = sales_db()
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        assert db.read_committed("sales", (1,)) == Row(id=1, product="ant", amount=30)

    def test_duplicate_insert_rejected(self):
        db = sales_db()
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        with pytest.raises(StorageError):
            add_sale(db, txn, 1, "bee", 1)
        db.abort(txn)

    def test_delete(self):
        db = sales_db()
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        t2 = db.begin()
        before = db.delete(t2, "sales", (1,))
        db.commit(t2)
        assert before["amount"] == 30
        assert db.read_committed("sales", (1,)) is None

    def test_delete_missing_raises(self):
        db = sales_db()
        txn = db.begin()
        with pytest.raises(StorageError):
            db.delete(txn, "sales", (9,))
        db.abort(txn)

    def test_update(self):
        db = sales_db()
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "sales", (1,), {"amount": 50})
        db.commit(t2)
        assert db.read_committed("sales", (1,))["amount"] == 50

    def test_update_pk_rejected(self):
        db = sales_db()
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        with pytest.raises(StorageError):
            db.update(txn, "sales", (1,), {"id": 2})
        db.abort(txn)

    def test_update_unknown_column_rejected(self):
        db = sales_db()
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        with pytest.raises(StorageError):
            db.update(txn, "sales", (1,), {"nope": 2})
        db.abort(txn)

    def test_noop_update(self):
        db = sales_db()
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "sales", (1,), {"amount": 30})
        db.commit(t2)
        assert db.check_all_views() == []

    def test_reinsert_after_delete(self):
        """Deleted base keys are ghosts; re-insert revives them."""
        db = sales_db()
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.delete(txn, "sales", (1,))
        add_sale(db, txn, 1, "bee", 9)
        db.commit(txn)
        assert db.read_committed("sales", (1,))["product"] == "bee"
        assert db.check_all_views() == []


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
class TestAggregateViewMaintenance:
    def test_insert_creates_group(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=1, total=30
        )

    def test_inserts_accumulate(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        for i, amount in enumerate((10, 20, 12)):
            add_sale(db, txn, i, "ant", amount)
        db.commit(txn)
        row = db.read_committed("by_product", ("ant",))
        assert row["n"] == 3
        assert row["total"] == 42

    def test_delete_decrements(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        add_sale(db, txn, 2, "ant", 12)
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "sales", (2,))
        db.commit(t2)
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=1, total=30
        )

    def test_group_disappears_at_zero(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "sales", (1,))
        db.commit(t2)
        assert db.read_committed("by_product", ("ant",)) is None
        assert db.check_all_views() == []

    def test_group_reappears(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.delete(txn, "sales", (1,))
        add_sale(db, txn, 2, "ant", 7)
        db.commit(txn)
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=1, total=7
        )

    def test_update_same_group(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "sales", (1,), {"amount": 45})
        db.commit(t2)
        row = db.read_committed("by_product", ("ant",))
        assert row["n"] == 1
        assert row["total"] == 45

    def test_update_moves_group(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        add_sale(db, txn, 2, "ant", 5)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "sales", (1,), {"product": "bee"})
        db.commit(t2)
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=1, total=5
        )
        assert db.read_committed("by_product", ("bee",)) == Row(
            product="bee", n=1, total=30
        )
        assert db.check_all_views() == []

    def test_abort_rolls_back_view(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        t2 = db.begin()
        add_sale(db, t2, 2, "ant", 100)
        add_sale(db, t2, 3, "wasp", 4)
        db.abort(t2)
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=1, total=30
        )
        assert db.read_committed("by_product", ("wasp",)) is None
        assert db.check_all_views() == []

    def test_abort_of_group_creation(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.abort(txn)
        assert db.read_committed("by_product", ("ant",)) is None
        assert db.read_committed("sales", (1,)) is None
        assert db.check_all_views() == []

    def test_filtered_view(self, strategy):
        db = Database(EngineConfig(aggregate_strategy=strategy))
        db.create_table("sales", ("id", "product", "amount"), ("id",))
        db.create_view(AggregateView(
            "big_sales",
            "sales",
            group_by=("product",),
            aggregates=[AggregateSpec.count("n")],
            where=col_ge("amount", 50),
        ))
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 10)  # filtered out
        add_sale(db, txn, 2, "ant", 90)  # in
        db.commit(txn)
        assert db.read_committed("big_sales", ("ant",))["n"] == 1
        # update moves the small sale across the predicate boundary
        t2 = db.begin()
        db.update(t2, "sales", (1,), {"amount": 70})
        db.commit(t2)
        assert db.read_committed("big_sales", ("ant",))["n"] == 2
        assert db.check_all_views() == []

    def test_view_over_existing_data(self, strategy):
        db = Database(EngineConfig(aggregate_strategy=strategy))
        db.create_table("sales", ("id", "product", "amount"), ("id",))
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        add_sale(db, txn, 2, "ant", 12)
        db.commit(txn)
        db.create_view(AggregateView(
            "by_product",
            "sales",
            group_by=("product",),
            aggregates=[
                AggregateSpec.count("n"),
                AggregateSpec.sum_of("total", "amount"),
            ],
        ))
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=2, total=42
        )
        t2 = db.begin()
        add_sale(db, t2, 3, "ant", 8)
        db.commit(t2)
        assert db.read_committed("by_product", ("ant",))["total"] == 50

    def test_multi_column_group_by(self, strategy):
        db = Database(EngineConfig(aggregate_strategy=strategy))
        db.create_table("t", ("id", "a", "b", "x"), ("id",))
        db.create_view(AggregateView(
            "v",
            "t",
            group_by=("a", "b"),
            aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("s", "x")],
        ))
        txn = db.begin()
        db.insert(txn, "t", {"id": 1, "a": 1, "b": "p", "x": 5})
        db.insert(txn, "t", {"id": 2, "a": 1, "b": "q", "x": 6})
        db.insert(txn, "t", {"id": 3, "a": 1, "b": "p", "x": 7})
        db.commit(txn)
        assert db.read_committed("v", (1, "p")) == Row(a=1, b="p", n=2, s=12)
        assert db.read_committed("v", (1, "q")) == Row(a=1, b="q", n=1, s=6)


class TestScans:
    def test_scan_view(self):
        db = sales_db()
        txn = db.begin()
        for i, product in enumerate(("ant", "bee", "cat")):
            add_sale(db, txn, i, product, 10)
        db.commit(txn)
        t2 = db.begin()
        rows = db.scan(t2, "by_product")
        db.commit(t2)
        assert [r["product"] for r in rows] == ["ant", "bee", "cat"]

    def test_scan_range(self):
        db = sales_db()
        txn = db.begin()
        for i in range(10):
            add_sale(db, txn, i, f"p{i}", 1)
        db.commit(txn)
        t2 = db.begin()
        rows = db.scan(t2, "by_product", KeyRange.between(("p2",), ("p5",)))
        db.commit(t2)
        assert [r["product"] for r in rows] == ["p2", "p3", "p4", "p5"]

    def test_scan_skips_zero_count_groups(self):
        db = sales_db("escrow")
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 3)
        add_sale(db, txn, 2, "bee", 4)
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "sales", (1,))
        db.commit(t2)
        # before cleanup runs the zero-count row physically exists
        t3 = db.begin()
        rows = db.scan(t3, "by_product")
        db.commit(t3)
        assert [r["product"] for r in rows] == ["bee"]

    def test_scan_base_table(self):
        db = sales_db()
        txn = db.begin()
        for i in range(5):
            add_sale(db, txn, i, "ant", i)
        db.commit(txn)
        t2 = db.begin()
        rows = db.scan(t2, "sales")
        db.commit(t2)
        assert len(rows) == 5


class TestReadPaths:
    def test_read_exact_sees_own_pending(self):
        db = sales_db("escrow")
        t1 = db.begin()
        add_sale(db, t1, 1, "ant", 30)
        db.commit(t1)
        t2 = db.begin()
        add_sale(db, t2, 2, "ant", 12)
        # committed view still shows 30 to outsiders; t2 sees 42 exactly
        assert db.read_exact(t2, "by_product", ("ant",))["total"] == 42
        db.commit(t2)

    def test_snapshot_read_ignores_uncommitted(self):
        db = sales_db("escrow")
        t1 = db.begin()
        add_sale(db, t1, 1, "ant", 30)
        db.commit(t1)
        writer = db.begin()
        add_sale(db, writer, 2, "ant", 100)  # holds E, uncommitted
        reader = db.begin(isolation="snapshot")
        row = db.read(reader, "by_product", ("ant",))
        assert row["total"] == 30  # no waiting, no dirty read
        db.commit(reader)
        db.commit(writer)

    def test_snapshot_is_stable_across_later_commits(self):
        db = sales_db("escrow")
        t1 = db.begin()
        add_sale(db, t1, 1, "ant", 30)
        db.commit(t1)
        reader = db.begin(isolation="snapshot")
        t2 = db.begin()
        add_sale(db, t2, 2, "ant", 12)
        db.commit(t2)
        # reader's snapshot predates t2's commit
        assert db.read(reader, "by_product", ("ant",))["total"] == 30
        db.commit(reader)
        fresh = db.begin(isolation="snapshot")
        assert db.read(fresh, "by_product", ("ant",))["total"] == 42
        db.commit(fresh)

    def test_snapshot_scan(self):
        db = sales_db("escrow")
        t1 = db.begin()
        add_sale(db, t1, 1, "ant", 30)
        db.commit(t1)
        reader = db.begin(isolation="snapshot")
        t2 = db.begin()
        add_sale(db, t2, 2, "bee", 9)
        db.commit(t2)
        rows = db.scan(reader, "by_product")
        assert [r["product"] for r in rows] == ["ant"]
        db.commit(reader)

    def test_read_missing_key(self):
        db = sales_db()
        txn = db.begin()
        assert db.read(txn, "by_product", ("nope",)) is None
        db.commit(txn)


class TestCommitFold:
    def test_deltas_fold_at_commit(self):
        db = sales_db("escrow", maintenance_mode="commit_fold")
        txn = db.begin()
        for i in range(5):
            add_sale(db, txn, i, "ant", 10)
        # nothing applied yet: the view has no ant group
        assert db.index("by_product").get_record(("ant",)) is None
        db.commit(txn)
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=5, total=50
        )
        assert db.check_all_views() == []

    def test_canceling_deltas_vanish(self):
        """+1 then -1 on the same group folds to nothing."""
        db = sales_db("escrow", maintenance_mode="commit_fold")
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 10)
        db.delete(txn, "sales", (1,))
        db.commit(txn)
        # the group was never created at all
        assert db.index("by_product").get_record(("ant",), include_ghost=True) is None
        assert db.check_all_views() == []

    def test_abort_discards_folded_deltas(self):
        db = sales_db("escrow", maintenance_mode="commit_fold")
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 10)
        db.abort(txn)
        assert db.read_committed("by_product", ("ant",)) is None
        assert db.check_all_views() == []


class TestDeferredMode:
    def test_view_stale_until_refresh(self):
        db = sales_db("escrow", maintenance_mode="deferred")
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        assert db.read_committed("by_product", ("ant",)) is None
        assert db.deferred.pending_count("by_product") == 1
        applied = db.refresh_view("by_product")
        assert applied == 1
        assert db.read_committed("by_product", ("ant",))["total"] == 30
        assert db.check_all_views() == []

    def test_staleness_metric(self):
        db = sales_db("escrow", maintenance_mode="deferred")
        txn = db.begin()
        add_sale(db, txn, 1, "ant", 30)
        db.commit(txn)
        db.clock.tick(100)
        assert db.deferred.staleness_ticks("by_product") >= 100
        db.refresh_all_views()
        assert db.deferred.staleness_ticks("by_product") == 0

    def test_refresh_folds_many(self):
        db = sales_db("escrow", maintenance_mode="deferred")
        for i in range(10):
            txn = db.begin()
            add_sale(db, txn, i, "ant", 1)
            db.commit(txn)
        assert db.deferred.pending_count() == 10
        db.refresh_all_views()
        assert db.read_committed("by_product", ("ant",))["n"] == 10
