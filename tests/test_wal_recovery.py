"""Recovery tests against a dict-backed fake target.

These exercise analysis/redo/undo in isolation — including the headline
escrow anomaly: physical before-image undo corrupts concurrently committed
increments, logical delta undo does not.
"""

import pytest

from repro.common import Row
from repro.wal import (
    AbortRecord,
    CheckpointRecord,
    CommitRecord,
    DeleteRecord,
    EndRecord,
    EscrowDeltaRecord,
    GhostRecord,
    InsertRecord,
    LogManager,
    RecordType,
    ReviveRecord,
    UpdateRecord,
    analyze,
    recover,
)
from repro.wal.recovery import RecoveryTarget


class FakeTarget(RecoveryTarget):
    """Indexes as plain dicts: key -> (row, is_ghost)."""

    def __init__(self):
        self.indexes = {}

    def _index(self, name):
        return self.indexes.setdefault(name, {})

    def recovery_insert(self, index_name, key, row, is_ghost=False):
        self._index(index_name)[key] = (row, is_ghost)

    def recovery_delete(self, index_name, key):
        self._index(index_name).pop(key, None)

    def recovery_update(self, index_name, key, row):
        _, ghost = self._index(index_name).get(key, (None, False))
        self._index(index_name)[key] = (row, ghost)

    def recovery_set_ghost(self, index_name, key, ghost):
        row, _ = self._index(index_name).get(key, (None, False))
        self._index(index_name)[key] = (row, ghost)

    def recovery_revive(self, index_name, key, row):
        self._index(index_name)[key] = (row, False)

    def recovery_escrow_apply(self, index_name, key, deltas):
        row, ghost = self._index(index_name)[key]
        changes = {c: row[c] + d for c, d in deltas.items()}
        self._index(index_name)[key] = (row.replace(**changes), ghost)

    def row(self, index_name, key):
        entry = self._index(index_name).get(key)
        return entry[0] if entry else None


def committed_txn(log, txn_id, records, ts=None):
    for r in records:
        log.append(r)
    log.append(CommitRecord(txn_id, ts if ts is not None else txn_id * 10))


def open_txn(log, txn_id, records):
    """The transaction's first record — no ``prev_lsn`` — opens it."""
    for r in records:
        log.append(r)


class TestAnalysis:
    def test_winners_and_losers(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(a=1))])
        open_txn(log, 2, [InsertRecord(2, "t", (2,), Row(a=2))])
        winners, losers, _, _ = analyze(log)
        assert winners == {1}
        assert set(losers) == {2}

    def test_aborted_without_end_is_loser(self):
        log = LogManager()
        open_txn(log, 1, [InsertRecord(1, "t", (1,), Row(a=1))])
        log.append(AbortRecord(1))
        winners, losers, _, _ = analyze(log)
        assert set(losers) == {1}

    def test_ended_txn_is_closed(self):
        log = LogManager()
        open_txn(log, 1, [InsertRecord(1, "t", (1,), Row(a=1))])
        log.append(AbortRecord(1))
        log.append(EndRecord(1))
        winners, losers, _, _ = analyze(log)
        assert winners == set()
        assert losers == {}


class TestRecoverBasics:
    def test_committed_insert_survives(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(a=1))])
        log.flush()
        target = FakeTarget()
        report = recover(log, target)
        assert target.row("t", (1,)) == Row(a=1)
        assert report.winners == {1}

    def test_uncommitted_insert_rolled_back(self):
        log = LogManager()
        open_txn(log, 1, [InsertRecord(1, "t", (1,), Row(a=1))])
        log.flush()
        target = FakeTarget()
        report = recover(log, target)
        assert target.row("t", (1,)) is None
        assert report.losers == {1}
        assert report.undo_count == 1
        assert report.clrs_written == 1

    def test_unflushed_commit_loses(self):
        log = LogManager()
        log.append(InsertRecord(1, "t", (1,), Row(a=1)))
        log.flush()
        log.append(CommitRecord(1, 10))
        log.crash()  # commit record was not flushed
        target = FakeTarget()
        recover(log, target)
        assert target.row("t", (1,)) is None

    def test_update_and_delete_recover(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(a=1))])
        committed_txn(
            log, 2, [UpdateRecord(2, "t", (1,), Row(a=1), Row(a=2))]
        )
        open_txn(log, 3, [DeleteRecord(3, "t", (1,), Row(a=2))])
        log.flush()
        target = FakeTarget()
        recover(log, target)
        assert target.row("t", (1,)) == Row(a=2)  # loser's delete undone

    def test_ghost_and_revive_recover(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(a=1))])
        committed_txn(log, 2, [GhostRecord(2, "t", (1,), Row(a=1))])
        open_txn(log, 3, [ReviveRecord(3, "t", (1,), Row(a=9), Row(a=1))])
        log.flush()
        target = FakeTarget()
        recover(log, target)
        row, ghost = target.indexes["t"][(1,)]
        assert ghost is True  # loser's revive undone -> ghost again
        assert row == Row(a=1)

    def test_multiple_losers_undone_in_lsn_order(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(v=0))])
        open_txn(log, 2, [UpdateRecord(2, "t", (1,), Row(v=0), Row(v=5))])
        open_txn(log, 3, [UpdateRecord(3, "t", (1,), Row(v=5), Row(v=9))])
        log.flush()
        target = FakeTarget()
        recover(log, target)
        # undo newest-first: v=9 -> 5 (txn3), v=5 -> 0 (txn2)
        assert target.row("t", (1,)) == Row(v=0)

    def test_system_txn_commits_independently(self):
        """Multi-level recovery: a committed ghost-cleanup stays applied
        even though the user transaction that made the ghost aborts."""
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(a=1))])
        # user txn 2 ghosts the row, still open at crash
        open_txn(log, 2, [GhostRecord(2, "t", (1,), Row(a=1))])
        log.flush()
        target = FakeTarget()
        recover(log, target)
        row, ghost = target.indexes["t"][(1,)]
        assert ghost is False
        assert row == Row(a=1)


class TestEscrowRecovery:
    """The R4 anomaly, at the WAL level."""

    def _interleaved_log(self, physical):
        """t1 (+5) interleaves with t2 (+3); t2 commits, t1 crashes open.

        Correct final value: 10 + 3 = 13.
        """
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "v", (1,), Row(total=10))])
        if physical:
            # Each txn logs before/after images as it sees them.
            log.append(UpdateRecord(2, "v", (1,), Row(total=10), Row(total=15)))
            log.append(UpdateRecord(3, "v", (1,), Row(total=15), Row(total=18)))
        else:
            log.append(EscrowDeltaRecord(2, "v", (1,), {"total": 5}))
            log.append(EscrowDeltaRecord(3, "v", (1,), {"total": 3}))
        log.append(CommitRecord(3, 30))
        log.flush()
        return log

    def test_logical_undo_preserves_committed_increment(self):
        log = self._interleaved_log(physical=False)
        target = FakeTarget()
        recover(log, target)
        assert target.row("v", (1,)) == Row(total=13)

    def test_physical_undo_corrupts_committed_increment(self):
        log = self._interleaved_log(physical=True)
        target = FakeTarget()
        recover(log, target)
        # Before-image undo wipes out t3's committed +3: the anomaly.
        assert target.row("v", (1,)) == Row(total=10)

    def test_escrow_redo_is_order_insensitive(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "v", (1,), Row(cnt=0))])
        committed_txn(log, 2, [EscrowDeltaRecord(2, "v", (1,), {"cnt": 4})])
        committed_txn(log, 3, [EscrowDeltaRecord(3, "v", (1,), {"cnt": -1})])
        log.flush()
        target = FakeTarget()
        recover(log, target)
        assert target.row("v", (1,)) == Row(cnt=3)


class TestCrashDuringRecovery:
    def test_partial_rollback_resumes_via_clrs(self):
        """Crash mid-undo; the CLR chain prevents double compensation."""
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(v=0))])
        open_txn(
            log,
            2,
            [
                EscrowDeltaRecord(2, "t", (1,), {"v": 5}),
                EscrowDeltaRecord(2, "t", (1,), {"v": 7}),
            ],
        )
        log.flush()
        target1 = FakeTarget()
        recover(log, target1)
        assert target1.row("t", (1,)) == Row(v=0)
        # first recovery wrote CLRs + END; crash again and re-recover
        log.flush()
        target2 = FakeTarget()
        report = recover(log, target2)
        assert target2.row("t", (1,)) == Row(v=0)
        # txn 2 ENDed during the first recovery; no losers remain
        assert report.losers == set()

    def test_crash_after_partial_clrs(self):
        """Simulate a crash that persisted only one of two CLRs."""
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(v=0))])
        open_txn(
            log,
            2,
            [
                EscrowDeltaRecord(2, "t", (1,), {"v": 5}),
                EscrowDeltaRecord(2, "t", (1,), {"v": 7}),
            ],
        )
        log.flush()
        target = FakeTarget()
        recover(log, target)
        # keep the deltas + first CLR only (drop second CLR + END)
        log.flush()
        clr_lsns = [r.lsn for r in log.records() if r.type is RecordType.CLR]
        assert len(clr_lsns) == 2
        log.flushed_lsn = clr_lsns[0]
        log.crash()
        target2 = FakeTarget()
        recover(log, target2)
        assert target2.row("t", (1,)) == Row(v=0)


class TestRecoveryIdempotence:
    def test_double_recovery_same_state(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(v=1))])
        open_txn(log, 2, [UpdateRecord(2, "t", (1,), Row(v=1), Row(v=2))])
        log.flush()
        t1, t2 = FakeTarget(), FakeTarget()
        recover(log, t1)
        log.flush()
        recover(log, t2)
        assert t1.indexes == t2.indexes


class TestRedoGate:
    """The gate is a read-only table of per-key winners elected from the
    durable pages: ``{(index, key): (lsn, row, is_ghost, dead)}``."""

    def escrow_log(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "v", (1,), Row(k=1, n=0))])  # 1
        committed_txn(log, 2, [EscrowDeltaRecord(2, "v", (1,), {"n": 5})])  # 3
        committed_txn(log, 3, [EscrowDeltaRecord(3, "v", (1,), {"n": 7})])  # 5
        log.flush()
        return log

    def test_live_winner_covers_up_to_and_including_its_own_lsn(self):
        log = self.escrow_log()
        gate = {("v", (1,)): (3, {"k": 1, "n": 5}, False, False)}
        target = FakeTarget()
        target.recovery_insert("v", (1,), Row(k=1, n=5))  # the seed
        report = recover(log, target, gate=dict(gate))
        assert (report.redo_skipped, report.redo_count) == (2, 1)
        assert target.row("v", (1,)) == Row(k=1, n=12)  # +5 not added twice

    def test_tombstone_never_suppresses_its_own_delete(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(v=1))])  # 1
        committed_txn(log, 2, [DeleteRecord(2, "t", (1,), Row(v=1))])  # 3
        log.flush()
        redone = []

        class Watching(FakeTarget):
            def recovery_delete(self, index_name, key):
                redone.append((index_name, key))
                super().recovery_delete(index_name, key)

        report = recover(
            log, Watching(), gate={("t", (1,)): (3, None, False, True)}
        )
        # strictly older records are covered; the delete at the
        # tombstone's own LSN is redone (it is idempotent)
        assert redone == [("t", (1,))]
        assert (report.redo_skipped, report.redo_count) == (1, 1)

    def test_recovery_only_reads_the_gate(self):
        log = self.escrow_log()
        open_txn(log, 4, [EscrowDeltaRecord(4, "v", (1,), {"n": 100})])
        log.flush()
        gate = {("v", (1,)): (3, {"k": 1, "n": 5}, False, False)}
        before = dict(gate)
        first, second = FakeTarget(), FakeTarget()
        for target in (first, second):  # a re-entered recovery gates alike
            target.recovery_insert("v", (1,), Row(k=1, n=5))
            recover(log, target, gate=gate)
            assert gate == before
        assert first.row("v", (1,)) == second.row("v", (1,)) == Row(k=1, n=12)

    def test_empty_gate_gates_nothing_and_trusts_no_checkpoint(self):
        log = self.escrow_log()
        log.append(CheckpointRecord({}))
        log.flush()
        target = FakeTarget()
        report = recover(log, target, gate={})
        assert report.analyzed_records == len(log)
        assert (report.redo_skipped, report.redo_count) == (0, 3)
        assert target.row("v", (1,)) == Row(k=1, n=12)
