"""Hand-built interleavings: the concurrency semantics of indexed views.

These tests run two or three transactions concurrently with the NOWAIT
lock policy, so a conflict surfaces immediately as
:class:`LockTimeoutError` instead of blocking — each test can assert
exactly which operations conflict and which commute. This is the paper's
behaviour table, executed.
"""

import pytest

from repro.common import (
    DeadlockError,
    EscrowViolationError,
    LockTimeoutError,
    Row,
)
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView


def sales_db(strategy="escrow", **kwargs):
    db = Database(EngineConfig(aggregate_strategy=strategy, **kwargs))
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


def seeded(strategy="escrow", **kwargs):
    db = sales_db(strategy, **kwargs)
    txn = db.begin()
    db.insert(txn, "sales", {"id": 1, "product": "hot", "amount": 10})
    db.insert(txn, "sales", {"id": 2, "product": "hot", "amount": 20})
    db.insert(txn, "sales", {"id": 3, "product": "cold", "amount": 5})
    db.commit(txn)
    return db


class TestEscrowConcurrency:
    """The headline property: concurrent writers to one hot group."""

    def test_concurrent_increments_commute(self):
        db = seeded("escrow")
        t1 = db.begin()
        t2 = db.begin()
        db.insert(t1, "sales", {"id": 10, "product": "hot", "amount": 1})
        # t2 touches the SAME view row concurrently — no conflict under E
        db.insert(t2, "sales", {"id": 11, "product": "hot", "amount": 2})
        db.commit(t1)
        db.commit(t2)
        row = db.read_committed("by_product", ("hot",))
        assert row == Row(product="hot", n=4, total=33)

    def test_concurrent_increment_and_decrement(self):
        db = seeded("escrow")
        t1 = db.begin()
        t2 = db.begin()
        db.insert(t1, "sales", {"id": 10, "product": "hot", "amount": 7})
        db.delete(t2, "sales", (2,))  # -1 / -20 on the same group
        db.commit(t2)
        db.commit(t1)
        assert db.read_committed("by_product", ("hot",)) == Row(
            product="hot", n=2, total=17
        )

    def test_commit_order_independent(self):
        db1, db2 = seeded("escrow"), seeded("escrow")
        for db, order in ((db1, (0, 1)), (db2, (1, 0))):
            txns = [db.begin(), db.begin()]
            db.insert(txns[0], "sales", {"id": 10, "product": "hot", "amount": 1})
            db.insert(txns[1], "sales", {"id": 11, "product": "hot", "amount": 2})
            for i in order:
                db.commit(txns[i])
        assert db1.read_committed("by_product", ("hot",)) == db2.read_committed(
            "by_product", ("hot",)
        )

    def test_abort_of_one_escrow_writer_spares_the_other(self):
        db = seeded("escrow")
        t1 = db.begin()
        t2 = db.begin()
        db.insert(t1, "sales", {"id": 10, "product": "hot", "amount": 100})
        db.insert(t2, "sales", {"id": 11, "product": "hot", "amount": 7})
        db.abort(t1)
        db.commit(t2)
        assert db.read_committed("by_product", ("hot",)) == Row(
            product="hot", n=3, total=37
        )

    def test_xlock_strategy_conflicts_on_hot_group(self):
        """The baseline: same interleaving, exclusive locks — t2 blocks."""
        db = seeded("xlock")
        t1 = db.begin()
        t2 = db.begin()
        db.insert(t1, "sales", {"id": 10, "product": "hot", "amount": 1})
        with pytest.raises(LockTimeoutError):
            db.insert(t2, "sales", {"id": 11, "product": "hot", "amount": 2})
        db.abort(t2)
        db.commit(t1)
        assert db.check_all_views() == []

    def test_escrow_writers_to_different_groups_always_fine(self):
        db = seeded("xlock")  # even the xlock strategy is fine here
        t1 = db.begin()
        t2 = db.begin()
        db.insert(t1, "sales", {"id": 10, "product": "hot", "amount": 1})
        db.insert(t2, "sales", {"id": 11, "product": "cold", "amount": 2})
        db.commit(t1)
        db.commit(t2)
        assert db.check_all_views() == []


class TestReadersVsEscrowWriters:
    def test_locking_reader_blocks_behind_escrow(self):
        db = seeded("escrow")
        writer = db.begin()
        db.insert(writer, "sales", {"id": 10, "product": "hot", "amount": 1})
        reader = db.begin()
        with pytest.raises(LockTimeoutError):
            db.read(reader, "by_product", ("hot",))
        db.abort(reader)
        db.commit(writer)

    def test_snapshot_reader_never_blocks(self):
        db = seeded("escrow")
        writer = db.begin()
        db.insert(writer, "sales", {"id": 10, "product": "hot", "amount": 1})
        reader = db.begin(isolation="snapshot")
        row = db.read(reader, "by_product", ("hot",))
        assert row["n"] == 2  # last committed state
        db.commit(reader)
        db.commit(writer)

    def test_escrow_writer_blocks_behind_reader(self):
        db = seeded("escrow")
        reader = db.begin()
        db.read(reader, "by_product", ("hot",))  # S lock held
        writer = db.begin()
        with pytest.raises(LockTimeoutError):
            db.insert(writer, "sales", {"id": 10, "product": "hot", "amount": 1})
        db.abort(writer)
        db.commit(reader)

    def test_own_exact_read_requires_exclusivity(self):
        """read_exact converts the reader's E to X — blocked while another
        escrow writer is in flight, exactly as the lattice dictates."""
        db = seeded("escrow")
        t1 = db.begin()
        t2 = db.begin()
        db.insert(t1, "sales", {"id": 10, "product": "hot", "amount": 1})
        db.insert(t2, "sales", {"id": 11, "product": "hot", "amount": 2})
        with pytest.raises(LockTimeoutError):
            db.read_exact(t1, "by_product", ("hot",))
        db.abort(t1)
        db.commit(t2)
        assert db.check_all_views() == []

    def test_exact_read_fine_when_alone(self):
        db = seeded("escrow")
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 10, "product": "hot", "amount": 1})
        row = db.read_exact(t1, "by_product", ("hot",))
        assert row["n"] == 3
        db.commit(t1)


class TestEscrowBounds:
    def test_count_cannot_go_negative(self):
        """The escrow test rejects a decrement that could take COUNT(*)
        below zero. Through the public API base-row X locks already
        prevent double deletes, so the bound is exercised through the
        maintainer directly — it is the engine's defense in depth."""
        db = sales_db("escrow")
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "hot", "amount": 10})
        db.commit(txn)
        view = db.catalog.view("by_product")
        maintainer = db.maintenance.aggregate
        t1 = db.begin()
        t2 = db.begin()
        a1 = maintainer.compile_group_delta(
            db, t1, view, ("hot",), {"n": -1, "total": -10}
        )
        for resource, mode in a1.lock_plan:
            t1.acquire(resource, mode)
        a1.apply(db, t1)
        a2 = maintainer.compile_group_delta(
            db, t2, view, ("hot",), {"n": -1, "total": -10}
        )
        for resource, mode in a2.lock_plan:  # E locks are compatible...
            t2.acquire(resource, mode)
        with pytest.raises(EscrowViolationError):
            a2.apply(db, t2)  # ...but the worst-case count would be -1
        db.abort(t2)
        db.commit(t1)
        assert db.read_committed("by_product", ("hot",)) is None

    def test_base_lock_protects_double_delete(self):
        db = sales_db("escrow")
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "hot", "amount": 10})
        db.insert(txn, "sales", {"id": 2, "product": "hot", "amount": 20})
        db.commit(txn)
        t1 = db.begin()
        t2 = db.begin()
        db.delete(t1, "sales", (1,))
        db.delete(t2, "sales", (2,))  # different base rows: both proceed
        db.commit(t1)
        db.commit(t2)
        assert db.read_committed("by_product", ("hot",)) is None
        assert db.check_all_views() == []


class TestGroupLifecycleConcurrency:
    def test_group_creation_blocks_second_creator(self):
        db = sales_db("escrow")
        t1 = db.begin()
        t2 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "new", "amount": 1})
        with pytest.raises(LockTimeoutError):
            db.insert(t2, "sales", {"id": 2, "product": "new", "amount": 2})
        db.abort(t2)
        db.commit(t1)
        assert db.read_committed("by_product", ("new",))["n"] == 1

    def test_creation_then_escrow_after_commit(self):
        db = sales_db("escrow")
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "new", "amount": 1})
        db.commit(t1)
        t2 = db.begin()
        t3 = db.begin()
        db.insert(t2, "sales", {"id": 2, "product": "new", "amount": 2})
        db.insert(t3, "sales", {"id": 3, "product": "new", "amount": 3})
        db.commit(t2)
        db.commit(t3)
        assert db.read_committed("by_product", ("new",))["n"] == 3


class TestPhantomProtection:
    def test_scan_blocks_group_creation(self):
        """A serializable scan of the view locks the gaps: creating a new
        group (a phantom for the scan) conflicts."""
        db = seeded("escrow")
        reader = db.begin()
        db.scan(reader, "by_product")
        writer = db.begin()
        with pytest.raises(LockTimeoutError):
            db.insert(writer, "sales", {"id": 10, "product": "aardvark", "amount": 1})
        db.abort(writer)
        db.commit(reader)

    def test_scan_allows_creation_outside_range(self):
        from repro.common.keys import KeyRange

        db = seeded("escrow")
        reader = db.begin()
        db.scan(reader, "by_product", KeyRange.at_most(("cold",)))
        writer = db.begin()
        # 'zebra' sorts above the scanned range and above its fence (the
        # key 'hot'), so the insert is unaffected.
        db.insert(writer, "sales", {"id": 10, "product": "zebra", "amount": 1})
        db.commit(writer)
        db.commit(reader)
        assert db.check_all_views() == []

    def test_nonserializable_scan_admits_phantom(self):
        """With key-range locking disabled the phantom slips through —
        the ablation that justifies R7."""
        db = seeded("escrow", serializable=False)
        reader = db.begin()
        first = db.scan(reader, "by_product")
        writer = db.begin()
        db.insert(writer, "sales", {"id": 10, "product": "aardvark", "amount": 1})
        db.commit(writer)
        second = db.scan(reader, "by_product")
        db.commit(reader)
        assert len(second) == len(first) + 1  # phantom observed

    def test_point_read_of_absent_group_blocks_creation(self):
        db = seeded("escrow")
        reader = db.begin()
        assert db.read(reader, "by_product", ("aaa",)) is None
        writer = db.begin()
        with pytest.raises(LockTimeoutError):
            db.insert(writer, "sales", {"id": 10, "product": "aaa", "amount": 1})
        db.abort(writer)
        db.commit(reader)


class TestDeadlocks:
    def test_classic_two_row_deadlock(self):
        db = seeded("xlock")
        t1 = db.begin()
        t2 = db.begin()
        db.update(t1, "sales", (1,), {"amount": 11})
        db.update(t2, "sales", (3,), {"amount": 6})
        # Use a cooperative-policy pair to actually build the cycle; with
        # NOWAIT the second lock request times out instead. Here we check
        # that the immediate-denial path reports correctly.
        with pytest.raises(LockTimeoutError):
            db.update(t1, "sales", (3,), {"amount": 12})
        db.abort(t1)
        db.commit(t2)

    def test_deadlock_detected_with_cooperative_waits(self):
        from repro.txn import LockPolicy, WouldWait

        db = seeded("xlock")
        t1 = db.begin(policy=LockPolicy.COOPERATIVE)
        t2 = db.begin(policy=LockPolicy.COOPERATIVE)
        db.update(t1, "sales", (1,), {"amount": 11})
        db.update(t2, "sales", (3,), {"amount": 6})
        with pytest.raises(WouldWait):
            db.update(t1, "sales", (3,), {"amount": 12})
        # t2 closes the cycle; it is younger, so it is the victim.
        with pytest.raises(DeadlockError):
            db.update(t2, "sales", (1,), {"amount": 7})
        db.abort(t2)
        # t1's parked request was granted when t2 released; re-running the
        # statement (as the simulator would) succeeds.
        db.update(t1, "sales", (3,), {"amount": 12})
        db.commit(t1)
        assert db.check_all_views() == []
