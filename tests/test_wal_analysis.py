"""Tests for WAL analysis utilities."""

from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView
from repro.wal import RecordType
from repro.wal.analysis import (
    bytes_by_type,
    maintenance_share,
    records_by_type,
    summarize,
    txn_footprint,
)


def busy_db():
    db = Database(EngineConfig(aggregate_strategy="escrow"))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v",
        "sales",
        group_by=("product",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    t1 = db.begin()
    db.insert(t1, "sales", {"id": 1, "product": "a", "amount": 5})
    db.insert(t1, "sales", {"id": 2, "product": "a", "amount": 7})
    db.commit(t1)
    t2 = db.begin()
    db.insert(t2, "sales", {"id": 3, "product": "b", "amount": 1})
    db.abort(t2)
    return db, t1.txn_id, t2.txn_id


class TestLogAnalysis:
    def test_records_by_type(self):
        db, _, _ = busy_db()
        counts = records_by_type(db.log)
        assert counts[RecordType.COMMIT] == 1
        assert counts[RecordType.ABORT] == 1
        assert counts[RecordType.END] == 1  # the abort's, not the commit's
        assert counts[RecordType.ESCROW_DELTA] >= 2
        assert counts[RecordType.CLR] >= 1

    def test_bytes_by_type_sums_to_estimate(self):
        db, _, _ = busy_db()
        assert sum(bytes_by_type(db.log).values()) == db.log.bytes_estimate

    def test_txn_footprint_committed(self):
        db, committed_id, _ = busy_db()
        fp = txn_footprint(db.log, committed_id)
        assert fp["committed"] and not fp["aborted"]
        assert not fp["rolled_back_complete"]  # COMMIT is its last record
        assert "sales" in fp["indexes"]
        assert "v" in fp["indexes"]
        assert fp["records"] >= 5  # 2 inserts, 2 deltas (+create), commit

    def test_txn_footprint_aborted(self):
        db, _, aborted_id = busy_db()
        fp = txn_footprint(db.log, aborted_id)
        assert fp["aborted"] and fp["rolled_back_complete"]
        assert not fp["committed"]

    def test_summarize(self):
        db, _, _ = busy_db()
        summary = summarize(db.log)
        assert summary["transactions_seen"] == 2
        assert summary["commits"] == 1
        assert summary["aborts"] == 1
        assert summary["total_records"] == len(db.log)
        assert summary["by_type"]["end"] == 1  # the abort's
        assert "begin" not in summary["by_type"]

    def test_maintenance_share(self):
        db, _, _ = busy_db()
        share = maintenance_share(db.log)
        assert share["counter_maintenance_records"] >= 2
        assert 0 < share["counter_maintenance_fraction"] < 1
