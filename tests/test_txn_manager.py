"""Transaction lifecycle edge cases and snapshot registry behaviour."""

import pytest

from repro.common import LogicalClock, TransactionStateError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.txn import SnapshotRegistry, TxnState
from repro.txn.transaction import LockPolicy
from repro.views import AggregateView


def make_db():
    db = Database(EngineConfig())
    db.create_table("t", ("a", "b"), ("a",))
    return db


class TestLifecycle:
    def test_commit_twice_rejected(self):
        db = make_db()
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionStateError):
            db.commit(txn)

    def test_write_after_commit_rejected(self):
        db = make_db()
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionStateError):
            db.insert(txn, "t", {"a": 1, "b": 2})

    def test_commit_after_abort_rejected(self):
        db = make_db()
        txn = db.begin()
        db.abort(txn)
        with pytest.raises(TransactionStateError):
            db.commit(txn)

    def test_abort_is_idempotent(self):
        db = make_db()
        txn = db.begin()
        db.abort(txn)
        db.abort(txn)  # deadlock victims may be aborted twice
        assert txn.state is TxnState.ABORTED

    def test_abort_committed_rejected(self):
        db = make_db()
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionStateError):
            db.abort(txn)

    def test_txn_ids_monotonic(self):
        db = make_db()
        ids = []
        for _ in range(5):
            txn = db.begin()
            ids.append(txn.txn_id)
            db.commit(txn)
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_system_txn_flag(self):
        db = make_db()
        sys_txn = db.begin_system()
        assert sys_txn.is_system
        assert sys_txn.policy is LockPolicy.NOWAIT
        db.commit(sys_txn)

    def test_counters(self):
        db = make_db()
        t1 = db.begin()
        db.commit(t1)
        t2 = db.begin()
        db.abort(t2)
        assert db.committed_count == 1
        assert db.aborted_count == 1

    def test_commit_ts_monotonic(self):
        db = make_db()
        stamps = []
        for _ in range(3):
            txn = db.begin()
            stamps.append(db.commit(txn))
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 3

    def test_locks_released_on_commit(self):
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"a": 1, "b": 2})
        assert db.locks.locks_of(txn.txn_id)
        db.commit(txn)
        assert db.locks.locks_of(txn.txn_id) == []

    def test_locks_released_on_abort(self):
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"a": 1, "b": 2})
        db.abort(txn)
        assert db.locks.locks_of(txn.txn_id) == []

    def test_end_record_written(self):
        """END closes a rollback's CLR chain and nothing else: a winner's
        last record is its COMMIT."""
        from repro.wal import RecordType

        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"a": 1, "b": 2})
        db.commit(txn)
        assert db.log.records_by_type(RecordType.END) == []
        assert db.log.record_at(db.log.tail_lsn()).type is RecordType.COMMIT
        txn = db.begin()
        db.insert(txn, "t", {"a": 2, "b": 2})
        db.abort(txn)
        (end,) = db.log.records_by_type(RecordType.END)
        assert (end.txn_id, end.lsn) == (txn.txn_id, db.log.tail_lsn())


class TestSystemTransactionIndependence:
    def test_system_commit_survives_user_abort(self):
        """Multi-level transactions at the engine level: a system txn
        spawned 'inside' user work commits independently."""
        db = make_db()
        user = db.begin()
        db.insert(user, "t", {"a": 1, "b": 2})
        sys_txn = db.begin_system()
        db.insert(sys_txn, "t", {"a": 99, "b": 0})
        db.commit(sys_txn)
        db.abort(user)
        assert db.read_committed("t", (99,)) is not None
        assert db.read_committed("t", (1,)) is None


class TestSnapshotRegistry:
    def test_horizon_tracks_oldest(self):
        clock = LogicalClock()
        reg = SnapshotRegistry(clock)
        clock.tick(10)
        reg.open(1)
        clock.tick(10)
        reg.open(2)
        assert reg.horizon() == 10
        reg.close(1)
        assert reg.horizon() == 20
        reg.close(2)
        assert reg.horizon() == clock.now()

    def test_active_count(self):
        clock = LogicalClock()
        reg = SnapshotRegistry(clock)
        reg.open(1)
        reg.open(2)
        assert reg.active_count() == 2
        reg.close(1)
        assert reg.active_count() == 1
        reg.close(1)  # idempotent
        assert reg.active_count() == 1

    def test_oldest_snapshot_age(self):
        clock = LogicalClock()
        reg = SnapshotRegistry(clock)
        reg.open(1)
        clock.tick(42)
        assert reg.oldest_snapshot_age() == 42


class TestReadCommittedIsolation:
    def make(self):
        db = Database(EngineConfig())
        db.create_table("sales", ("id", "product", "amount"), ("id",))
        db.create_view(AggregateView(
            "v",
            "sales",
            group_by=("product",),
            aggregates=[AggregateSpec.count("n"),
                        AggregateSpec.sum_of("total", "amount")],
        ))
        return db

    def test_read_committed_sees_fresh_commits(self):
        """Unlike snapshot isolation, read_committed re-reads the latest
        committed state on every statement."""
        db = self.make()
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "a", "amount": 5})
        db.commit(t1)
        reader = db.begin(isolation="read_committed")
        assert db.read(reader, "v", ("a",))["n"] == 1
        t2 = db.begin()
        db.insert(t2, "sales", {"id": 2, "product": "a", "amount": 5})
        db.commit(t2)
        # the same reader now sees the newer commit (non-repeatable read
        # is the documented trade of this level)
        assert db.read(reader, "v", ("a",))["n"] == 2
        db.commit(reader)

    def test_read_committed_never_blocks(self):
        db = self.make()
        writer = db.begin()
        db.insert(writer, "sales", {"id": 1, "product": "a", "amount": 5})
        reader = db.begin(isolation="read_committed")
        assert db.read(reader, "v", ("a",)) is None  # uncommitted invisible
        db.commit(reader)
        db.commit(writer)

    def test_read_committed_scan(self):
        db = self.make()
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "a", "amount": 5})
        db.commit(t1)
        reader = db.begin(isolation="read_committed")
        assert len(db.scan(reader, "v")) == 1
        db.commit(reader)
