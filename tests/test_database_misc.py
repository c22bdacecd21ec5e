"""Miscellaneous Database API behaviour not covered elsewhere."""

import pytest

from repro.common import Row, StorageError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec, derive_averages
from repro.views import AggregateView


def sales_db():
    db = Database(EngineConfig())
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v",
        "sales",
        group_by=("product",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    return db


class TestLookupsAndNames:
    def test_index_names_sorted(self):
        db = sales_db()
        assert db.index_names() == ["sales", "v"]

    def test_missing_index_raises(self):
        with pytest.raises(StorageError):
            sales_db().index("nope")

    def test_view_of_index(self):
        db = sales_db()
        assert db.indexes.view_of("v").name == "v"
        assert db.indexes.view_of("sales") is None

    def test_table_key_and_pk(self):
        db = sales_db()
        schema = db.catalog.table("sales")
        assert schema.primary_key == ("id",)
        assert schema.key_of(Row(id=7, product="x", amount=1)) == (7,)


class TestReadEdgeCases:
    def test_read_committed_missing(self):
        db = sales_db()
        assert db.read_committed("v", ("nope",)) is None

    def test_for_update_read_takes_u_lock(self):
        from repro.locking import LockMode

        db = sales_db()
        with db.session() as s:
            s.insert("sales", {"id": 1, "product": "a", "amount": 1})
        txn = db.begin()
        db.read(txn, "sales", (1,), for_update=True)
        held = db.locks.held_mode(txn.txn_id, ("key", "sales", (1,)))
        assert held.key_mode is LockMode.U
        db.commit(txn)

    def test_read_own_uncommitted_write(self):
        db = sales_db()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "a", "amount": 5})
        row = db.read(txn, "sales", (1,))
        assert row["amount"] == 5  # own write visible through own locks
        db.update(txn, "sales", (1,), {"amount": 9})
        assert db.read(txn, "sales", (1,))["amount"] == 9
        db.commit(txn)

    def test_derive_averages_on_view_read(self):
        db = sales_db()
        with db.session() as s:
            s.insert("sales", {"id": 1, "product": "a", "amount": 10})
            s.insert("sales", {"id": 2, "product": "a", "amount": 20})
        row = db.read_committed("v", ("a",))
        enriched = derive_averages(row, [("avg_amount", "t", "n")])
        assert enriched["avg_amount"] == 15.0


class TestStatsAndCounters:
    def test_dml_counters(self):
        db = sales_db()
        with db.session() as s:
            s.insert("sales", {"id": 1, "product": "a", "amount": 1})
            s.update("sales", (1,), {"amount": 2})
            s.delete("sales", (1,))
        assert db.counters.get("dml.insert") == 1
        assert db.counters.get("dml.update") == 1
        assert db.counters.get("dml.delete") == 1

    def test_txn_stats_track_work(self):
        db = sales_db()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "a", "amount": 1})
        db.read(txn, "sales", (1,))
        assert txn.stats.writes == 1
        assert txn.stats.reads == 1
        assert txn.stats.view_maintenances == 1
        db.commit(txn)


class TestEngineConfigRepr:
    def test_repr_mentions_strategy(self):
        cfg = EngineConfig(aggregate_strategy="xlock")
        assert "xlock" in repr(cfg)

    def test_invalid_values_rejected(self):
        from repro.common import ReproError

        with pytest.raises(ReproError):
            EngineConfig(aggregate_strategy="nope")
        with pytest.raises(ReproError):
            EngineConfig(maintenance_mode="nope")
        with pytest.raises(ReproError):
            EngineConfig(counter_logging="nope")


class TestVersionChains:
    def test_each_commit_adds_version(self):
        """Each commit stamps a version and drops the ones no snapshot
        can see: with no other transaction open a hot group keeps at
        most two, and a snapshot opened earlier keeps its own."""
        db = sales_db()
        with db.session() as s:
            s.insert("sales", {"id": 0, "product": "a", "amount": 1})
        record = db.index("v").get_record(("a",))
        for i in range(1, 1001):
            with db.session() as s:
                s.insert("sales", {"id": i, "product": "a", "amount": 1})
            assert record.version_count() <= 2
        reader = db.begin(isolation="snapshot")
        for i in range(1001, 1011):
            with db.session() as s:
                s.insert("sales", {"id": i, "product": "a", "amount": 1})
        assert db.read(reader, "v", ("a",))["n"] == 1001
        db.commit(reader)
        with db.session() as s:
            s.insert("sales", {"id": 1011, "product": "a", "amount": 1})
        assert record.version_count() <= 2
        assert db.read_committed("v", ("a",))["n"] == 1012

    def test_old_snapshot_reads_old_version_after_many_commits(self):
        db = sales_db()
        with db.session() as s:
            s.insert("sales", {"id": 0, "product": "a", "amount": 1})
        reader = db.begin(isolation="snapshot")
        for i in range(1, 4):
            with db.session() as s:
                s.insert("sales", {"id": i, "product": "a", "amount": 1})
        assert db.read(reader, "v", ("a",))["n"] == 1
        db.commit(reader)
