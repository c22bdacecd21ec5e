"""Secondary indexes on base tables: maintenance, lookups, recovery."""

import pytest

from repro.common import CatalogError, LockTimeoutError, Row
from repro.core import Database, EngineConfig
from repro.views import ProjectionView


def people_db(**config_kwargs):
    db = Database(EngineConfig(**config_kwargs))
    db.create_table("people", ("pid", "city", "age", "name"), ("pid",))
    db.create_secondary_index("people", "by_city", ("city",))
    return db


def add(db, txn, pid, city, age, name="x"):
    db.insert(txn, "people", {"pid": pid, "city": city, "age": age, "name": name})


class TestDdl:
    def test_unknown_column_rejected(self):
        db = people_db()
        with pytest.raises(CatalogError):
            db.create_secondary_index("people", "bad", ("nope",))

    def test_duplicate_name_rejected(self):
        db = people_db()
        with pytest.raises(CatalogError):
            db.create_secondary_index("people", "by_city", ("age",))

    def test_materializes_existing_rows(self):
        db = Database(EngineConfig())
        db.create_table("people", ("pid", "city"), ("pid",))
        txn = db.begin()
        db.insert(txn, "people", {"pid": 1, "city": "oslo"})
        db.commit(txn)
        db.create_secondary_index("people", "by_city", ("city",))
        reader = db.begin()
        assert len(db.lookup(reader, "people", "by_city", ("oslo",))) == 1
        db.commit(reader)

    def test_multiple_indexes_per_table(self):
        db = people_db()
        db.create_secondary_index("people", "by_age", ("age",))
        txn = db.begin()
        add(db, txn, 1, "oslo", 33)
        db.commit(txn)
        reader = db.begin()
        assert len(db.lookup(reader, "people", "by_age", (33,))) == 1
        db.commit(reader)


class TestLookups:
    def fill(self, db):
        txn = db.begin()
        add(db, txn, 1, "oslo", 30)
        add(db, txn, 2, "oslo", 40)
        add(db, txn, 3, "rome", 50)
        db.commit(txn)

    def test_equality_probe(self):
        db = people_db()
        self.fill(db)
        reader = db.begin()
        rows = db.lookup(reader, "people", "by_city", ("oslo",))
        db.commit(reader)
        assert sorted(r["pid"] for r in rows) == [1, 2]

    def test_probe_misses(self):
        db = people_db()
        self.fill(db)
        reader = db.begin()
        assert db.lookup(reader, "people", "by_city", ("paris",)) == []
        db.commit(reader)

    def test_wrong_arity_rejected(self):
        db = people_db()
        reader = db.begin()
        with pytest.raises(CatalogError):
            db.lookup(reader, "people", "by_city", ("a", "b"))
        db.abort(reader)

    def test_only_a_secondary_index_of_the_table_answers(self):
        db = people_db()
        db.create_table("towns", ("city", "size"), ("city",))
        db.create_view(ProjectionView("people#plain", "people", ("pid", "city")))
        reader = db.begin()
        for table, name in [("people", "plain"), ("people", "nope"),
                            ("towns", "by_city")]:
            with pytest.raises(CatalogError):
                db.lookup(reader, table, name, ("oslo",))
        db.abort(reader)

    def test_reads_count_entries_and_rows(self):
        db = people_db()
        self.fill(db)
        reader = db.begin()
        assert len(db.lookup(reader, "people", "by_city", ("oslo",))) == 2
        assert reader.stats.reads == 4
        db.commit(reader)

    def test_returns_full_base_rows(self):
        db = people_db()
        self.fill(db)
        reader = db.begin()
        rows = db.lookup(reader, "people", "by_city", ("rome",))
        db.commit(reader)
        assert rows[0] == Row(pid=3, city="rome", age=50, name="x")

    def test_snapshot_lookup(self):
        db = people_db()
        self.fill(db)
        reader = db.begin(isolation="snapshot")
        writer = db.begin()
        add(db, writer, 4, "oslo", 20)
        db.commit(writer)
        rows = db.lookup(reader, "people", "by_city", ("oslo",))
        assert len(rows) == 2  # snapshot predates the new row
        db.commit(reader)


class TestMaintenance:
    def test_update_moves_entry(self):
        db = people_db()
        txn = db.begin()
        add(db, txn, 1, "oslo", 30)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "people", (1,), {"city": "rome"})
        db.commit(t2)
        reader = db.begin()
        assert db.lookup(reader, "people", "by_city", ("oslo",)) == []
        assert len(db.lookup(reader, "people", "by_city", ("rome",))) == 1
        db.commit(reader)

    def test_update_of_unindexed_column_keeps_entry(self):
        db = people_db()
        txn = db.begin()
        add(db, txn, 1, "oslo", 30)
        db.commit(txn)
        first = db.log.tail_lsn() + 1
        t2 = db.begin()
        db.update(t2, "people", (1,), {"age": 31})
        db.commit(t2)
        logged = {
            getattr(record, "index_name", None)
            for record in db.log.records(first)
        }
        assert "people" in logged
        assert "people#by_city" not in logged  # no entry moved or changed
        reader = db.begin()
        assert db.lookup(reader, "people", "by_city", ("oslo",))[0]["age"] == 31
        db.commit(reader)

    def test_delete_ghosts_entry(self):
        db = people_db()
        txn = db.begin()
        add(db, txn, 1, "oslo", 30)
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "people", (1,))
        db.commit(t2)
        reader = db.begin()
        assert db.lookup(reader, "people", "by_city", ("oslo",)) == []
        db.commit(reader)
        db.run_ghost_cleanup()
        assert db.index("people#by_city").total_entries() == 0

    def test_abort_restores_entries(self):
        db = people_db()
        txn = db.begin()
        add(db, txn, 1, "oslo", 30)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "people", (1,), {"city": "rome"})
        db.abort(t2)
        reader = db.begin()
        assert len(db.lookup(reader, "people", "by_city", ("oslo",))) == 1
        db.commit(reader)

    def test_crash_recovery_rebuilds_entries(self):
        db = people_db()
        txn = db.begin()
        add(db, txn, 1, "oslo", 30)
        add(db, txn, 2, "rome", 40)
        db.commit(txn)
        db.simulate_crash_and_recover()
        reader = db.begin()
        assert len(db.lookup(reader, "people", "by_city", ("oslo",))) == 1
        db.commit(reader)
        # and maintenance still works afterwards
        t2 = db.begin()
        db.update(t2, "people", (1,), {"city": "rome"})
        db.commit(t2)
        reader = db.begin()
        assert len(db.lookup(reader, "people", "by_city", ("rome",))) == 2
        db.commit(reader)


class TestLookupConcurrency:
    def test_serializable_probe_blocks_matching_insert(self):
        """Phantom protection on the predicate: a probe for city=oslo
        gap-locks the probed range, so inserting a new oslo person
        conflicts."""
        db = people_db()
        txn = db.begin()
        add(db, txn, 1, "oslo", 30)
        db.commit(txn)
        reader = db.begin()
        db.lookup(reader, "people", "by_city", ("oslo",))
        writer = db.begin()
        with pytest.raises(LockTimeoutError):
            add(db, writer, 2, "oslo", 99)
        db.abort(writer)
        db.commit(reader)

    def test_probe_does_not_block_unrelated_insert(self):
        db = people_db()
        txn = db.begin()
        add(db, txn, 1, "oslo", 30)
        add(db, txn, 2, "zurich", 30)
        db.commit(txn)
        reader = db.begin()
        db.lookup(reader, "people", "by_city", ("oslo",))
        writer = db.begin()
        # The probe locks the oslo entries (including the gap below the
        # first one — conservative) and the gap up to the fence (the
        # zurich entry). A key above the fence is genuinely unrelated.
        add(db, writer, 3, "zz-town", 99)
        db.commit(writer)
        db.commit(reader)
        assert db.check_all_views() == []
