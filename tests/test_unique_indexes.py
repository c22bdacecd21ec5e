"""Unique secondary indexes: constraint enforcement."""

import pytest

from repro.common import CatalogError, Row
from repro.core import Database, EngineConfig


def users_db(**config_kwargs):
    db = Database(EngineConfig(**config_kwargs))
    db.create_table("users", ("uid", "email", "name"), ("uid",))
    db.create_secondary_index("users", "by_email", ("email",), unique=True)
    return db


def add(db, txn, uid, email, name="x"):
    db.insert(txn, "users", {"uid": uid, "email": email, "name": name})


class TestUniqueConstraint:
    def test_duplicate_rejected_statement_level(self):
        db = users_db()
        txn = db.begin()
        add(db, txn, 1, "a@x")
        with pytest.raises(CatalogError):
            add(db, txn, 2, "a@x")
        # the transaction survives the failed statement
        add(db, txn, 3, "b@x")
        db.commit(txn)
        assert db.read_committed("users", (1,)) is not None
        assert db.read_committed("users", (2,)) is None
        assert db.read_committed("users", (3,)) is not None

    def test_duplicate_across_transactions(self):
        db = users_db()
        with db.session() as s:
            add(db, s.current_transaction, 1, "a@x")
        t2 = db.begin()
        with pytest.raises(CatalogError):
            add(db, t2, 2, "a@x")
        db.abort(t2)

    def test_value_freed_after_delete_and_cleanup(self):
        db = users_db()
        with db.session() as s:
            add(db, s.current_transaction, 1, "a@x")
        with db.session() as s:
            s.delete("users", (1,))
        # the entry is a ghost: re-inserting the value revives it
        with db.session() as s:
            add(db, s.current_transaction, 2, "a@x")
        reader = db.begin()
        rows = db.lookup(reader, "users", "by_email", ("a@x",))
        db.commit(reader)
        assert [r["uid"] for r in rows] == [2]

    def test_update_to_taken_value_rejected(self):
        db = users_db()
        with db.session() as s:
            add(db, s.current_transaction, 1, "a@x")
            add(db, s.current_transaction, 2, "b@x")
        t2 = db.begin()
        with pytest.raises(CatalogError):
            db.update(t2, "users", (2,), {"email": "a@x"})
        db.abort(t2)

    def test_update_swapping_own_value_ok(self):
        db = users_db()
        with db.session() as s:
            add(db, s.current_transaction, 1, "a@x")
        with db.session() as s:
            s.update("users", (1,), {"email": "c@x"})
        reader = db.begin()
        assert db.lookup(reader, "users", "by_email", ("c@x",))[0]["uid"] == 1
        assert db.lookup(reader, "users", "by_email", ("a@x",)) == []
        db.commit(reader)

    def test_create_unique_index_over_duplicates_fails(self):
        db = Database(EngineConfig())
        db.create_table("users", ("uid", "email"), ("uid",))
        with db.session() as s:
            s.insert("users", {"uid": 1, "email": "same"})
            s.insert("users", {"uid": 2, "email": "same"})
        with pytest.raises(CatalogError, match="duplicate value"):
            db.create_secondary_index("users", "by_email", ("email",), unique=True)
        # nothing is left behind: no catalog entry, no index, no build
        assert not db.catalog.has_view("users#by_email")
        assert "users#by_email" not in db.index_names()
        assert not db.online_builds.active
        db.create_secondary_index("users", "by_email", ("email",))

    def test_lookup_returns_full_row(self):
        db = users_db()
        with db.session() as s:
            add(db, s.current_transaction, 1, "a@x", name="ada")
        reader = db.begin()
        rows = db.lookup(reader, "users", "by_email", ("a@x",))
        db.commit(reader)
        assert rows == [Row(uid=1, email="a@x", name="ada")]

    @pytest.mark.parametrize(
        "mode", ["immediate", "deferred", "commit_fold"]
    )
    def test_constraint_holds_in_every_maintenance_mode(self, mode):
        """A unique constraint cannot be checked later: the index is
        maintained by the statement whatever the mode."""
        db = users_db(maintenance_mode=mode)
        with db.session() as s:
            add(db, s.current_transaction, 1, "a@x")
        t2 = db.begin()
        with pytest.raises(CatalogError):
            add(db, t2, 2, "a@x")
        db.abort(t2)
        assert db.deferred.pending_count() == 0
        assert db.check_all_views() == []

    def test_constraint_holds_while_quarantined(self):
        """Quarantine degrades the index's reads; writes keep maintaining
        it, so the rebuild finds nothing to fix."""
        db = users_db()
        with db.session() as s:
            add(db, s.current_transaction, 1, "a@x")
        db.quarantine_view("users#by_email")
        t2 = db.begin()
        with pytest.raises(CatalogError):
            add(db, t2, 2, "a@x")
        add(db, t2, 3, "c@x")
        db.commit(t2)
        assert db.index("users#by_email").get_record(("c@x",)) is not None
        with db.session() as s:
            assert [r["uid"] for r in s.lookup("users", "by_email", ("c@x",))] == [3]
        assert db.stats()["integrity"]["degraded_reads"] == 1
        assert db.rebuild_view("users#by_email") == 0
        assert db.check_integrity().clean

    def test_recovery_preserves_constraint(self):
        db = users_db()
        with db.session() as s:
            add(db, s.current_transaction, 1, "a@x")
        db.simulate_crash_and_recover()
        t2 = db.begin()
        with pytest.raises(CatalogError):
            add(db, t2, 2, "a@x")
        db.abort(t2)
