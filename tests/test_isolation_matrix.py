"""The isolation-level anomaly matrix, executed.

Each isolation level this engine offers admits a documented set of
anomalies and excludes the rest. These tests pin the matrix down — both
directions: the protections hold, and the permitted anomalies really do
occur (a test that demonstrates write skew under snapshot isolation is
documentation that cannot rot).

| level          | dirty read | non-repeatable | phantom | write skew |
|----------------|-----------|----------------|---------|------------|
| serializable   | no        | no             | no      | no         |
| snapshot       | no        | no             | no*     | YES        |
| read_committed | no        | YES            | YES     | YES        |

(*within the snapshot; the snapshot itself is stale by design.)
"""

import pytest

from repro.common import LockTimeoutError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView


def make_db(**kwargs):
    db = Database(EngineConfig(**kwargs))
    db.create_table("t", ("k", "v"), ("k",))
    return db


def put(db, k, v):
    with db.session() as s:
        s.insert("t", {"k": k, "v": v})


class TestDirtyReads:
    """No level ever sees uncommitted data."""

    @pytest.mark.parametrize("isolation", ["snapshot", "read_committed"])
    def test_versioned_readers_never_see_uncommitted(self, isolation):
        db = make_db()
        put(db, 1, "committed")
        writer = db.begin()
        db.update(writer, "t", (1,), {"v": "dirty"})
        reader = db.begin(isolation=isolation)
        assert db.read(reader, "t", (1,))["v"] == "committed"
        db.commit(reader)
        db.abort(writer)

    def test_serializable_reader_waits_instead(self):
        db = make_db()
        put(db, 1, "committed")
        writer = db.begin()
        db.update(writer, "t", (1,), {"v": "dirty"})
        reader = db.begin()
        with pytest.raises(LockTimeoutError):
            db.read(reader, "t", (1,))
        db.abort(reader)
        db.abort(writer)


class TestNonRepeatableReads:
    def test_serializable_repeats(self):
        db = make_db()
        put(db, 1, "a")
        reader = db.begin()
        first = db.read(reader, "t", (1,))
        # a writer cannot slip in: the reader's S lock blocks it
        writer = db.begin()
        with pytest.raises(LockTimeoutError):
            db.update(writer, "t", (1,), {"v": "b"})
        db.abort(writer)
        assert db.read(reader, "t", (1,)) == first
        db.commit(reader)

    def test_snapshot_repeats(self):
        db = make_db()
        put(db, 1, "a")
        reader = db.begin(isolation="snapshot")
        first = db.read(reader, "t", (1,))
        with db.session() as s:
            s.update("t", (1,), {"v": "b"})
        assert db.read(reader, "t", (1,)) == first  # stable snapshot
        db.commit(reader)

    def test_read_committed_does_not_repeat(self):
        """The permitted anomaly, demonstrated."""
        db = make_db()
        put(db, 1, "a")
        reader = db.begin(isolation="read_committed")
        first = db.read(reader, "t", (1,))
        with db.session() as s:
            s.update("t", (1,), {"v": "b"})
        second = db.read(reader, "t", (1,))
        db.commit(reader)
        assert first["v"] == "a" and second["v"] == "b"


class TestWriteSkew:
    """The snapshot-isolation anomaly the paper's serializable protocol
    avoids: two transactions each read the other's write target through
    their snapshots, decide based on stale truth, and both commit."""

    def on_call_db(self):
        db = make_db()
        put(db, "alice", "on_call")
        put(db, "bob", "on_call")
        return db

    def count_on_call(self, db, txn):
        rows = db.scan(txn, "t")
        return sum(1 for r in rows if r["v"] == "on_call")

    def test_write_skew_occurs_under_snapshot(self):
        db = self.on_call_db()
        t1 = db.begin(isolation="snapshot")
        t2 = db.begin(isolation="snapshot")
        # both see two doctors on call, so each goes off call
        assert self.count_on_call(db, t1) == 2
        assert self.count_on_call(db, t2) == 2
        db.update(t1, "t", ("alice",), {"v": "off"})
        db.update(t2, "t", ("bob",), {"v": "off"})
        db.commit(t1)
        db.commit(t2)  # both commit: nobody is on call — write skew
        checker = db.begin()
        assert self.count_on_call(db, checker) == 0
        db.commit(checker)

    def test_write_skew_prevented_under_serializable(self):
        db = self.on_call_db()
        t1 = db.begin()
        t2 = db.begin()
        assert self.count_on_call(db, t1) == 2
        # t2's scan blocks behind nothing yet (S locks are shared)...
        assert self.count_on_call(db, t2) == 2
        # ...but the writes conflict with the other's read locks
        with pytest.raises(LockTimeoutError):
            db.update(t1, "t", ("alice",), {"v": "off"})
        db.abort(t1)
        db.update(t2, "t", ("bob",), {"v": "off"})
        db.commit(t2)
        checker = db.begin()
        assert self.count_on_call(db, checker) == 1  # invariant held
        db.commit(checker)


class TestPhantomsByLevel:
    def aggregate_db(self):
        db = Database(EngineConfig())
        db.create_table("s", ("id", "g", "x"), ("id",))
        db.create_view(AggregateView(
            "v",
            "s",
            group_by=("g",),
            aggregates=[AggregateSpec.count("n")],
        ))
        with db.session() as session:
            session.insert("s", {"id": 1, "g": "a", "x": 1})
        return db

    def test_read_committed_scan_admits_phantom(self):
        db = self.aggregate_db()
        reader = db.begin(isolation="read_committed")
        first = db.scan(reader, "v")
        with db.session() as writer:
            writer.insert("s", {"id": 2, "g": "b", "x": 1})
        second = db.scan(reader, "v")
        db.commit(reader)
        assert len(second) == len(first) + 1  # phantom observed

    def test_serializable_scan_blocks_phantom(self):
        db = self.aggregate_db()
        reader = db.begin()
        db.scan(reader, "v")
        writer = db.begin()
        with pytest.raises(LockTimeoutError):
            db.insert(writer, "s", {"id": 2, "g": "b", "x": 1})
        db.abort(writer)
        db.commit(reader)
