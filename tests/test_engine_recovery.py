"""Engine-level crash recovery: whole-database crash/rebuild scenarios."""

import pytest

from repro.common import Row
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView, JoinView


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


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
class TestBasicRecovery:
    def test_committed_work_survives(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.insert(txn, "sales", {"id": 2, "product": "ant", "amount": 12})
        db.commit(txn)
        report = db.simulate_crash_and_recover()
        assert report.losers == set()
        assert db.read_committed("sales", (1,)) is not None
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=2, total=42
        )
        assert db.check_all_views() == []

    def test_in_flight_txn_rolled_back(self, strategy):
        db = sales_db(strategy)
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.commit(t1)
        t2 = db.begin()
        db.insert(t2, "sales", {"id": 2, "product": "ant", "amount": 100})
        # crash with t2 open (its records were flushed with t1's commit? no
        # — flush happens at commit; force a flush so t2's records are
        # durable yet uncommitted, the interesting case)
        db.log.flush()
        report = db.simulate_crash_and_recover()
        assert 2 in {t for t in report.losers} or report.losers
        assert db.read_committed("sales", (2,)) is None
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=1, total=30
        )
        assert db.check_all_views() == []

    def test_unflushed_tail_simply_vanishes(self, strategy):
        db = sales_db(strategy)
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.commit(t1)
        t2 = db.begin()
        db.insert(t2, "sales", {"id": 2, "product": "bee", "amount": 5})
        # no flush: t2's records die with the crash
        db.simulate_crash_and_recover()
        assert db.read_committed("sales", (2,)) is None
        assert db.read_committed("by_product", ("bee",)) is None
        assert db.check_all_views() == []

    def test_deleted_data_stays_deleted(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "sales", (1,))
        db.commit(t2)
        db.simulate_crash_and_recover()
        assert db.read_committed("sales", (1,)) is None
        assert db.read_committed("by_product", ("ant",)) is None
        assert db.check_all_views() == []

    def test_double_crash(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.commit(txn)
        t2 = db.begin()
        db.insert(t2, "sales", {"id": 2, "product": "ant", "amount": 5})
        db.log.flush()
        db.simulate_crash_and_recover()
        first = db.read_committed("by_product", ("ant",))
        db.simulate_crash_and_recover()
        assert db.read_committed("by_product", ("ant",)) == first
        assert db.check_all_views() == []


class TestEscrowRecoveryEngine:
    def test_interleaved_escrow_with_loser(self):
        """Two concurrent escrow writers, one commits, one is open at the
        crash: the committed increment survives, the loser's vanishes."""
        db = sales_db("escrow")
        t0 = db.begin()
        db.insert(t0, "sales", {"id": 1, "product": "hot", "amount": 10})
        db.commit(t0)
        t1 = db.begin()
        t2 = db.begin()
        db.insert(t1, "sales", {"id": 2, "product": "hot", "amount": 100})
        db.insert(t2, "sales", {"id": 3, "product": "hot", "amount": 7})
        db.commit(t2)  # flushes t1's records too (shared log prefix)
        db.simulate_crash_and_recover()
        assert db.read_committed("by_product", ("hot",)) == Row(
            product="hot", n=2, total=17
        )
        assert db.check_all_views() == []

    def test_pending_escrow_discarded_on_crash(self):
        db = sales_db("escrow")
        t0 = db.begin()
        db.insert(t0, "sales", {"id": 1, "product": "hot", "amount": 10})
        db.commit(t0)
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 2, "product": "hot", "amount": 99})
        db.log.flush()
        db.simulate_crash_and_recover()
        assert db.read_committed("by_product", ("hot",))["total"] == 10
        # recovered records start with no escrow state; a new
        # transaction works
        t2 = db.begin()
        db.insert(t2, "sales", {"id": 3, "product": "hot", "amount": 5})
        db.commit(t2)
        assert db.read_committed("by_product", ("hot",))["total"] == 15
        assert db.check_all_views() == []

    def test_zero_count_group_requeued_after_recovery(self):
        db = sales_db("escrow")
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "hot", "amount": 10})
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "sales", (1,))
        db.commit(t2)
        db.simulate_crash_and_recover()
        # the zero-count row and the base ghost are back on the work list
        assert len(db.cleanup) >= 2
        db.run_ghost_cleanup()
        assert db.index("by_product").total_entries() == 0


class TestJoinViewRecovery:
    def make_db(self):
        db = Database()
        db.create_table("customers", ("cid", "name"), ("cid",))
        db.create_table("orders", ("oid", "cid", "amount"), ("oid",))
        db.create_view(JoinView(
            "v",
            "orders",
            "customers",
            on=[("cid", "cid")],
            columns=("oid", "cid", "amount", "name"),
        ))
        return db

    def test_join_view_and_aux_indexes_recover(self):
        db = self.make_db()
        txn = db.begin()
        db.insert(txn, "customers", {"cid": 1, "name": "alice"})
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 5})
        db.commit(txn)
        db.simulate_crash_and_recover()
        assert db.read_committed("v", (10, 1))["name"] == "alice"

        assert db.index("v#right").get_row((1, 10)) is not None
        assert db.index("v#leftfk").get_row((1, 10)) is not None
        # and maintenance still works post-recovery
        t2 = db.begin()
        db.delete(t2, "customers", (1,))
        db.commit(t2)
        assert db.read_committed("v", (10, 1)) is None
        assert db.check_all_views() == []


class TestCheckpoints:
    def test_checkpoint_bounds_analysis(self):
        db = sales_db("escrow")
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.commit(txn)
        db.take_checkpoint()
        t2 = db.begin()
        db.insert(t2, "sales", {"id": 2, "product": "ant", "amount": 12})
        db.commit(t2)
        report = db.simulate_crash_and_recover()
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=2, total=42
        )
        # analysis started after the checkpoint: fewer records analyzed
        # than the log holds
        assert report.analyzed_records < len(db.log)
        assert db.check_all_views() == []

    def test_checkpoint_with_active_escrow_txn(self):
        """The subtle case: a checkpoint taken while an escrow delta is
        pending leaves the inclusive value in the durable pages; undo
        subtracts it back."""
        db = sales_db("escrow")
        t0 = db.begin()
        db.insert(t0, "sales", {"id": 1, "product": "hot", "amount": 10})
        db.commit(t0)
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 2, "product": "hot", "amount": 99})
        db.take_checkpoint()  # t1 still open: the pages hold 109 inclusive
        db.simulate_crash_and_recover()  # t1 is a loser
        assert db.read_committed("by_product", ("hot",)) == Row(
            product="hot", n=1, total=10
        )
        assert db.check_all_views() == []

    def test_checkpoint_with_active_txn_that_commits_later(self):
        db = sales_db("escrow")
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "hot", "amount": 10})
        db.take_checkpoint()
        db.commit(t1)
        db.simulate_crash_and_recover()
        assert db.read_committed("by_product", ("hot",))["total"] == 10
        assert db.check_all_views() == []

    def test_work_after_recovery_continues(self):
        db = sales_db("escrow")
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.commit(txn)
        db.simulate_crash_and_recover()
        t2 = db.begin()
        db.insert(t2, "sales", {"id": 2, "product": "ant", "amount": 12})
        db.commit(t2)
        assert db.read_committed("by_product", ("ant",))["total"] == 42
        # a second crash replays both generations of work
        db.simulate_crash_and_recover()
        assert db.read_committed("by_product", ("ant",))["total"] == 42
        assert db.check_all_views() == []


class TestPhysicalCounterLoggingAnomaly:
    """R4 at the engine level: the xlock strategy logs physical updates;
    interleaved with a loser, recovery restores a stale before-image only
    if undo is physical. Our CLR-based undo *is* the physical before-image
    for UpdateRecords — the anomaly needs interleaved writers, which the
    xlock strategy forbids via X locks. This is the point: physical
    logging is only sound BECAUSE the locks serialize writers. The test
    pins that soundness."""

    def test_xlock_physical_logging_is_sound_under_x_locks(self):
        db = sales_db("xlock")
        t0 = db.begin()
        db.insert(t0, "sales", {"id": 1, "product": "hot", "amount": 10})
        db.commit(t0)
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 2, "product": "hot", "amount": 99})
        db.log.flush()
        db.simulate_crash_and_recover()
        assert db.read_committed("by_product", ("hot",))["total"] == 10
        assert db.check_all_views() == []
