"""The snapshot-horizon guard: ghost cleanup must not erase history that
an active snapshot can still see."""

from repro.common import Row
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView


def sales_db():
    db = Database(EngineConfig(aggregate_strategy="escrow"))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v",
        "sales",
        group_by=("product",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    return db


class TestSnapshotHorizonGuard:
    def test_cleanup_deferred_while_snapshot_active(self):
        db = sales_db()
        with db.session() as s:
            s.insert("sales", {"id": 1, "product": "a", "amount": 30})
        # a snapshot opens while the group is alive
        reader = db.begin(isolation="snapshot")
        assert db.read(reader, "v", ("a",))["t"] == 30
        # the group is emptied and cleanup runs
        with db.session() as s:
            s.delete("sales", (1,))
        removed = db.run_ghost_cleanup()
        # the view row must survive: the reader still needs its history
        record = db.index("v").get_record(("a",), include_ghost=True)
        assert record is not None
        assert db.counters.get("cleanup.deferred_for_snapshots") >= 1
        # and the reader indeed still sees the old aggregate
        assert db.read(reader, "v", ("a",)) == Row(product="a", n=1, t=30)
        db.commit(reader)
        # once the snapshot closes, cleanup succeeds
        db.run_ghost_cleanup()
        assert db.index("v").get_record(("a",), include_ghost=True) is None
        assert db.check_all_views() == []

    def test_cleanup_immediate_without_snapshots(self):
        db = sales_db()
        with db.session() as s:
            s.insert("sales", {"id": 1, "product": "a", "amount": 30})
        with db.session() as s:
            s.delete("sales", (1,))
        db.run_ghost_cleanup()
        assert db.index("v").total_entries() == 0
        assert db.counters.get("cleanup.deferred_for_snapshots") == 0

    def test_base_row_history_also_protected(self):
        db = sales_db()
        with db.session() as s:
            s.insert("sales", {"id": 1, "product": "a", "amount": 30})
        reader = db.begin(isolation="snapshot")
        with db.session() as s:
            s.delete("sales", (1,))
        db.run_ghost_cleanup()
        # the base-row ghost survives for the reader
        assert db.read(reader, "sales", (1,)) == Row(id=1, product="a", amount=30)
        db.commit(reader)
        db.run_ghost_cleanup()
        assert db.index("sales").total_entries() == 0

    def test_guard_requeues_not_drops(self):
        db = sales_db()
        with db.session() as s:
            s.insert("sales", {"id": 1, "product": "a", "amount": 30})
        reader = db.begin(isolation="snapshot")
        with db.session() as s:
            s.delete("sales", (1,))
        before = len(db.cleanup)
        db.run_ghost_cleanup()
        # candidates were requeued, so the backlog persists
        assert len(db.cleanup) >= 1
        db.commit(reader)
