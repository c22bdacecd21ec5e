"""Write plans: one statement through a table's plan, one descent per
touched key, one escrow apply per view group per statement, keys the
index cannot order refused before anything happens, and SQL statements
that are all or nothing inside an open transaction."""

import inspect

import pytest

from repro.common import (
    CatalogError,
    EscrowViolationError,
    Row,
    StorageError,
)
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.storage import Index
from repro.storage.btree import BPlusTree
from repro.views import AggregateView
from repro.wal.records import EscrowDeltaRecord
from repro.workload import SALES, OrderEntryWorkload


def grouped_db(**config):
    db = Database(EngineConfig(**config))
    db.create_table("t", ("id", "g", "amount"), ("id",))
    db.create_view(AggregateView(
        "by_g", "t", group_by=("g",),
        aggregates=[AggregateSpec.count("n"),
                    AggregateSpec.sum_of("total", "amount")],
        bounds={"total": (0, None)},
    ))
    return db


def escrow_records(db, since=0):
    return [
        record for record in db.log.records(since + 1)
        if isinstance(record, EscrowDeltaRecord)
    ]


def locks_of(db, txn):
    return dict(db.locks.locks_of(txn.txn_id))


# ----------------------------------------------------------------------
# the counts an order transaction costs
# ----------------------------------------------------------------------


class TestOrderTransactionCounts:
    """Fifty ``order_api``-shaped transactions — four inserts into
    ``sales``, every group already there — on the benchmark's schema."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"index": 0, "descents": 0}

        def counted(original, kind):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return original(*args, **kwargs)
            return wrapper

        for name, value in list(vars(Index).items()):
            if not name.startswith("_") and inspect.isfunction(value):
                if inspect.isgeneratorfunction(value):
                    continue  # scans: no order transaction makes one
                monkeypatch.setattr(Index, name, counted(value, "index"))
        for name in ("_find_leaf", "_find_path"):
            monkeypatch.setattr(
                BPlusTree, name, counted(getattr(BPlusTree, name), "descents")
            )
        return calls

    def test_index_calls_descents_and_lock_requests_are_pinned(self, calls):
        db = Database(EngineConfig())
        orders = OrderEntryWorkload(
            db, n_products=100, zipf_theta=1.0, seed=11
        ).setup().seed_groups()
        session = db.session()
        requests = db.stats()["lock"]["requests"]
        calls.update(index=0, descents=0)
        for _ in range(50):
            session.begin()
            for _ in range(4):
                session.insert(SALES, orders.next_sale_values())
            session.commit()
        # per insert: locate the key, set its entry, locate the group,
        # stamp the group's escrow reserve — 16 a transaction (35.2 when
        # every step descended on its own), and nothing at commit
        assert calls["index"] == 50 * 16
        # one descent per touched key, plus the splits' path finding
        assert calls["descents"] == 412
        # exactly the lock traffic of compiling each insert on its own
        assert db.stats()["lock"]["requests"] - requests == 529
        assert db.check_all_views() == []


def test_rows_sharing_a_group_make_one_escrow_apply():
    db = grouped_db()
    db.execute("INSERT INTO t VALUES (1, 1, 1), (2, 2, 1)")
    tail = db.log.tail_lsn()
    db.execute("INSERT INTO t VALUES (3, 1, 5), (4, 2, 6), (5, 1, 7), (6, 3, 8)")
    records = escrow_records(db, tail)
    assert [(r.key, r.deltas) for r in records] == [
        ((1,), {"n": 2, "total": 12}),
        ((2,), {"n": 1, "total": 6}),
        ((3,), {"n": 1, "total": 8}),
    ]
    assert db.read_committed("by_g", (1,)) == Row(g=1, n=3, total=13)
    assert db.check_all_views() == []


def test_an_update_moving_rows_between_groups_folds_both_sides():
    db = grouped_db()
    db.execute("INSERT INTO t VALUES (1, 1, 5), (2, 2, 6), (3, 1, 7)")
    tail = db.log.tail_lsn()
    db.execute("UPDATE t SET g = 3 - g WHERE id <= 2")
    # row 1 leaves group 1 for 2, row 2 leaves 2 for 1: one record each
    assert [(r.key, r.deltas) for r in escrow_records(db, tail)] == [
        ((1,), {"n": 0, "total": 1}),
        ((2,), {"n": 0, "total": -1}),
    ]
    assert db.check_all_views() == []


# ----------------------------------------------------------------------
# keys an index cannot order
# ----------------------------------------------------------------------


class TestKeysTheIndexCannotOrder:
    def test_a_table_key_is_refused_before_anything_happens(self):
        db = grouped_db()
        session = db.session()
        session.insert("t", {"id": 1, "g": 1, "amount": 2})
        session.begin()
        session.insert("t", {"id": 2, "g": 1, "amount": 2})
        txn = session.current_transaction
        held, records = locks_of(db, txn), len(db.log)
        with pytest.raises(StorageError, match=r"index 't'.*\('x',\)"):
            session.insert("t", {"id": "x", "g": 1, "amount": 2})
        assert locks_of(db, txn) == held and len(db.log) == records
        session.insert("t", {"id": 3, "g": 1, "amount": 2})  # still usable
        session.commit()
        assert db.read_committed("by_g", (1,))["n"] == 3
        assert db.check_all_views() == []

    @pytest.mark.parametrize("group", ["y", None])
    def test_a_group_key_is_refused_before_anything_happens(self, group):
        db = grouped_db()
        session = db.session()
        session.insert("t", {"id": 1, "g": 1, "amount": 2})
        session.begin()
        txn = session.current_transaction
        with pytest.raises(StorageError, match="by_g"):
            session.insert("t", {"id": 2, "g": group, "amount": 2})
        assert locks_of(db, txn) == {} and db.log.last_lsn_of(txn.txn_id) is None
        session.insert("t", {"id": 2, "g": 2, "amount": 2})
        session.commit()
        with pytest.raises(StorageError):  # autocommit: nothing either
            session.insert("t", {"id": 3, "g": group, "amount": 2})
        assert db.read_committed("t", (3,)) is None
        assert db.check_all_views() == []

    def test_an_update_into_such_a_group_is_refused(self):
        db = grouped_db()
        db.execute("INSERT INTO t VALUES (1, 1, 2)")
        session = db.session()
        session.begin()
        records = len(db.log)
        with pytest.raises(StorageError, match="by_g"):
            session.update("t", (1,), {"g": "y"})
        assert len(db.log) == records
        session.update("t", (1,), {"g": 2})
        session.commit()
        assert db.check_all_views() == []

    def test_groups_of_one_statement_that_cannot_be_ordered_are_refused(self):
        db = grouped_db()  # an empty view orders nothing against nothing
        with pytest.raises(StorageError, match="by_g"):
            db.execute("INSERT INTO t VALUES (1, NULL, 2), (2, 'y', 3)")
        assert db.index("t").total_entries() == 0
        assert db.check_all_views() == []

    def test_an_index_holding_only_null_group_keys_works(self):
        db = grouped_db()
        db.execute("INSERT INTO t VALUES (1, NULL, 2), (2, NULL, 3)")
        db.execute("INSERT INTO t VALUES (3, NULL, 4)")
        db.execute("UPDATE t SET amount = 10 WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        assert db.read_committed("by_g", (None,)) == Row(g=None, n=2, total=14)
        assert db.check_all_views() == []

    def test_through_sql_the_statement_leaves_nothing(self):
        db = grouped_db()
        db.execute("INSERT INTO t VALUES (1, 1, 2)")
        session = db.session()
        session.begin()
        session.execute("INSERT INTO t VALUES (2, 1, 2)")
        with pytest.raises(StorageError):
            session.execute("INSERT INTO t VALUES (3, 1, 1), ('x', 1, 1)")
        with pytest.raises(StorageError):
            session.execute("INSERT INTO t VALUES (4, 1, 1), (5, 'y', 1)")
        session.commit()
        assert [row["id"] for row in db.execute("SELECT id FROM t")] == [1, 2]
        assert db.read_committed("by_g", (1,))["n"] == 2
        assert db.check_all_views() == []


# ----------------------------------------------------------------------
# a SQL statement inside an open transaction is all or nothing
# ----------------------------------------------------------------------


class TestStatementAtomicity:
    def open_session(self, db, *statements):
        session = db.session()
        session.begin()
        for sql in statements:
            session.execute(sql)
        return session

    @pytest.mark.parametrize("values", [
        "(2, 1, 1), (3, 2, 1), (1, 1, 9)",  # the last is in the table
        "(7, 1, 1), (7, 1, 2)",  # the statement repeats a key
    ])
    def test_an_insert_with_a_duplicate_changes_nothing(self, values):
        db = grouped_db()
        db.execute("INSERT INTO t VALUES (1, 1, 1)")
        session = self.open_session(db, "INSERT INTO t VALUES (4, 2, 4)")
        txn = session.current_transaction
        held, records = locks_of(db, txn), len(db.log)
        with pytest.raises(StorageError, match="duplicate"):
            session.execute(f"INSERT INTO t VALUES {values}")
        assert locks_of(db, txn) == held and len(db.log) == records
        session.commit()
        assert sorted(r["id"] for r in db.execute("SELECT id FROM t")) == [1, 4]
        assert db.check_all_views() == []

    def test_an_update_failing_midway_rolls_back_its_first_rows(self):
        db = Database()
        db.execute("CREATE TABLE t (id, code, PRIMARY KEY (id))")
        db.create_secondary_index("t", "by_code", ("code",), unique=True)
        db.execute("INSERT INTO t VALUES (1, 10), (2, 25), (3, 30)")
        session = self.open_session(db)
        with pytest.raises(CatalogError, match="duplicate"):
            # row 1 moves to 15, then row 2 would take row 3's 30
            session.execute("UPDATE t SET code = code + 5 WHERE id <= 2")
        assert session.in_transaction()
        session.execute("UPDATE t SET code = 11 WHERE id = 1")
        session.commit()
        assert [(r["id"], r["code"]) for r in db.execute("SELECT * FROM t")] == [
            (1, 11), (2, 25), (3, 30),
        ]
        assert db.check_integrity().clean

    def test_a_delete_failing_at_its_group_rolls_back_its_rows(self):
        db = grouped_db()
        db.execute("INSERT INTO t VALUES (1, 1, 5), (2, 1, 5), (3, 1, -4)")
        session = self.open_session(db)
        with pytest.raises(EscrowViolationError):
            # both rows' ghosts land before the group's -10 breaks total >= 0
            session.execute("DELETE FROM t WHERE amount = 5")
        session.execute("DELETE FROM t WHERE id = 3")
        session.commit()
        assert sorted(r["id"] for r in db.execute("SELECT id FROM t")) == [1, 2]
        assert db.read_committed("by_g", (1,)) == Row(g=1, n=2, total=10)
        assert db.check_all_views() == []

    def test_autocommit_statements_take_no_savepoint(self, monkeypatch):
        db = grouped_db()
        taken = []
        savepoint = Database.savepoint
        monkeypatch.setattr(
            Database, "savepoint",
            lambda self, txn: taken.append(txn) or savepoint(self, txn),
        )
        db.execute("INSERT INTO t VALUES (1, 1, 1), (2, 1, 2)")
        with pytest.raises(StorageError):
            db.execute("INSERT INTO t VALUES (3, 1, 1), (3, 1, 2)")
        assert taken == []
        txn = db.begin()
        db.execute("INSERT INTO t VALUES (4, 1, 1)", txn=txn)
        assert taken == [txn]
        db.commit(txn)
