"""Recovery tests against a dict-backed fake target.

These exercise analysis/redo/undo in isolation — including the headline
escrow anomaly: physical before-image undo corrupts concurrently committed
increments, logical delta undo does not. The fake target is also the
reference model of the two recovery verbs: generated record sequences
are applied to it and to an engine, whose leaves, written back to its
page store, must agree with both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregateSpec, AggregateView, Database
from repro.common import Row
from repro.core import EngineConfig
from repro.faults import FaultInjector
from repro.storage.bufferpool import durable_winners
from repro.views.online import ViewBuilder
from repro.wal import (
    AbortRecord,
    CheckpointRecord,
    CleanupRecord,
    CommitRecord,
    CompensationRecord,
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
from repro.wal.records import CounterImageRecord
from repro.wal.recovery import RecoveryTarget
from tests.test_wal_codec import same, values


class FakeTarget(RecoveryTarget):
    """The reference model of the two verbs: ``{index: {key: (row,
    is_ghost)}}``, an absent key being no slot."""

    def __init__(self):
        self.indexes = {}

    def _index(self, name):
        return self.indexes.setdefault(name, {})

    def set_entry(self, index_name, key, entry, lsn=None):
        if entry is None:
            self._index(index_name).pop(key, None)
        else:
            self._index(index_name)[key] = entry

    def add_deltas(self, index_name, key, deltas, lsn=None):
        entry = self._index(index_name).get(key)
        if entry is not None:
            row, ghost = entry
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
        committed_txn(log, 3, [GhostRecord(3, "t", (1,), Row(a=2))])
        open_txn(log, 4, [CleanupRecord(4, "t", (1,), Row(a=2))])
        log.flush()
        target = FakeTarget()
        recover(log, target)
        # the loser's removal is undone: the ghost is back in its slot
        assert target.indexes["t"][(1,)] == (Row(a=2), True)

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
    durable pages: ``{(index, key): (lsn, row, is_ghost)}``."""

    def escrow_log(self):
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "v", (1,), Row(k=1, n=0))])  # 1
        committed_txn(log, 2, [EscrowDeltaRecord(2, "v", (1,), {"n": 5})])  # 3
        committed_txn(log, 3, [EscrowDeltaRecord(3, "v", (1,), {"n": 7})])  # 5
        log.flush()
        return log

    def test_live_winner_covers_up_to_and_including_its_own_lsn(self):
        log = self.escrow_log()
        gate = {("v", (1,)): (3, {"k": 1, "n": 5}, False)}
        target = FakeTarget()
        target.set_entry("v", (1,), (Row(k=1, n=5), False))  # the seed
        report = recover(log, target, gate=dict(gate))
        assert (report.redo_skipped, report.redo_count) == (2, 1)
        assert target.row("v", (1,)) == Row(k=1, n=12)  # +5 not added twice

    def test_a_key_no_image_holds_is_redone_in_full(self):
        """A removed key is absent from every image: nothing gates the
        records that made and removed it."""
        log = LogManager()
        committed_txn(log, 1, [InsertRecord(1, "t", (1,), Row(v=1))])  # 1
        committed_txn(log, 2, [CleanupRecord(2, "t", (1,), Row(v=1))])  # 3
        log.flush()
        redone = []

        class Watching(FakeTarget):
            def set_entry(self, index_name, key, entry, lsn=None):
                redone.append((index_name, key, entry))
                super().set_entry(index_name, key, entry, lsn)

        report = recover(
            log, Watching(), gate={("t", (2,)): (3, {"v": 2}, False)}
        )
        assert redone == [("t", (1,), (Row(v=1), False)), ("t", (1,), None)]
        assert (report.redo_skipped, report.redo_count) == (0, 2)

    def test_recovery_only_reads_the_gate(self):
        log = self.escrow_log()
        open_txn(log, 4, [EscrowDeltaRecord(4, "v", (1,), {"n": 100})])
        log.flush()
        gate = {("v", (1,)): (3, {"k": 1, "n": 5}, False)}
        before = dict(gate)
        first, second = FakeTarget(), FakeTarget()
        for target in (first, second):  # a re-entered recovery gates alike
            target.set_entry("v", (1,), (Row(k=1, n=5), False))
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


# ---------------------------------------------------------------------
# one differential over the three targets
# ---------------------------------------------------------------------

INDEXES = ("a", "b")
slot_keys = st.integers(0, 3).map(lambda k: (k,))
counters = st.one_of(
    st.integers(-50, 50),
    st.decimals(allow_nan=False, allow_infinity=False, places=2,
                min_value=-50, max_value=50),
)
slot_rows = st.builds(
    lambda n, s, v: Row(n=n, s=s, v=v), st.integers(-50, 50), counters, values
)
slot_deltas = st.dictionaries(st.sampled_from(["n", "s"]), counters, max_size=2)
where = (st.just(1), st.sampled_from(INDEXES), slot_keys)
row_changes = st.one_of(
    st.builds(InsertRecord, *where, slot_rows),
    st.builds(UpdateRecord, *where, slot_rows, slot_rows),
    st.builds(GhostRecord, *where, slot_rows),
    st.builds(ReviveRecord, *where, slot_rows, slot_rows),
    st.builds(CleanupRecord, *where, slot_rows),
    st.builds(CounterImageRecord, *where, slot_rows, slot_rows),
    st.builds(EscrowDeltaRecord, *where, slot_deltas),
)
steps = st.lists(
    st.tuples(row_changes, st.sampled_from(["redo", "twice", "redo_undo"])),
    max_size=25,
)


class Targets:
    """The dict model and an engine driven in step, and the engine's
    leaves as its page store holds them once every one is written back."""

    def __init__(self):
        self.model = FakeTarget()
        # order-4 trees and a 2-leaf dirty table: leaves split, merge and
        # are written back mid-sequence
        self.db = Database(EngineConfig(btree_order=4, buffer_pool_frames=2))
        for name in INDEXES:
            self.db.create_table(name, ("k", "n", "s", "v"), ("k",))
        self.lsn = 0

    def redo(self, record):
        self.lsn += 1
        record.lsn = self.lsn
        record.redo(self.model)
        record.redo(self.db)

    def undo(self, record):
        """Undo as of a CLR's LSN, the way rollback applies it."""
        clr = CompensationRecord(record.txn_id, record.lsn, None, record)
        self.lsn += 1
        clr.lsn = self.lsn
        clr.redo(self.model)
        clr.redo(self.db)

    def images(self):
        self.db._pool.write_older_than(self.lsn + 1)
        table, _, _ = durable_winners(self.db._store)
        return {
            locator: (Row(row), ghost)
            for locator, (_, row, ghost) in table.items()
        }

    def states(self):
        return (
            {
                (name, key): entry
                for name, slots in self.model.indexes.items()
                for key, entry in slots.items()
            },
            {
                (name, key): (record.current_row, record.is_ghost)
                for name in INDEXES
                for key, record in self.db.index(name).scan(include_ghosts=True)
            },
            self.images(),
        )

    def agreed_state(self):
        model, engine, images = self.states()
        assert model.keys() == engine.keys() == images.keys()
        for locator, entry in model.items():
            # equal values of equal type: the images' went through bytes
            assert same(engine[locator], entry), (locator, engine[locator], entry)
            assert same(images[locator], entry), (locator, images[locator], entry)
        return model


@settings(max_examples=80, deadline=None)
@given(steps)
def test_the_three_targets_agree_after_every_redo_and_undo(sequence):
    targets = Targets()
    for record, mode in sequence:
        targets.redo(record)
        state = targets.agreed_state()
        if mode == "twice":
            targets.redo(record)
            again = targets.agreed_state()
            if record.type is not RecordType.ESCROW_DELTA:
                # an image record assigns: redo . redo = redo
                assert again == state
        elif mode == "redo_undo":
            targets.undo(record)
            targets.agreed_state()
        for name in INDEXES:
            targets.db.index(name).check_invariants()
    targets.db.latches.assert_all_free()


def test_a_delta_is_the_one_redo_that_is_not_idempotent():
    targets = Targets()
    targets.redo(InsertRecord(1, "a", (1,), Row(n=0, s=0, v=None)))
    delta = EscrowDeltaRecord(1, "a", (1,), {"n": 2})
    targets.redo(delta)
    targets.redo(delta)
    assert targets.agreed_state()[("a", (1,))] == (Row(n=4, s=0, v=None), False)


def test_a_delta_against_an_absent_entry_is_a_no_op_on_every_target():
    targets = Targets()
    delta = EscrowDeltaRecord(1, "a", (2,), {"n": 1, "s": 7})
    targets.redo(delta)
    assert targets.agreed_state() == {}
    # a removed entry is no entry either
    targets.redo(InsertRecord(1, "a", (2,), Row(n=0, s=0, v=None)))
    targets.redo(CleanupRecord(1, "a", (2,), Row(n=0, s=0, v=None)))
    targets.redo(delta)
    targets.undo(delta)
    assert targets.agreed_state() == {}


@pytest.mark.parametrize("written_back", [False, True])
def test_a_delta_whose_insert_the_log_never_saw_fabricates_no_row(
    written_back,
):
    """The ``wal.append.lost`` shape: the group's INSERT is dropped, a
    later delta for it commits. A page mirror once replayed the deltas
    onto ``{}``, a checkpoint made that durable, and the next recovery
    seeded a row with no group column into the view index. Now replay
    adds nothing to an absent row — the group is gone and the loss is
    reported — and a leaf written back holds the row the engine had."""
    db = Database()
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v", "sales", group_by=("product",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("s", "amount")],
    ))
    injector = db.install_fault_injector(FaultInjector())
    injector.arm("wal.append.lost", match="InsertRecord", after=1, times=1)
    with db.session() as s:  # base INSERT logged, the group's INSERT lost
        s.insert("sales", {"id": 1, "product": "bee", "amount": 3})
    injector.disarm()
    with db.session() as s:
        s.insert("sales", {"id": 2, "product": "bee", "amount": 7})
    assert db.read_committed("v", ("bee",)) == Row(product="bee", n=2, s=10)
    if written_back:
        db.take_checkpoint()
    db.simulate_crash_and_recover()
    record = db.index("v").get_record(("bee",), include_ghost=True)
    if written_back:
        assert record.current_row == Row(product="bee", n=2, s=10)
        assert db.check_integrity().clean
    else:
        assert record is None
        # the loss itself is reported, as it always was
        assert any("bee" in problem for problem in db.check_all_views())
        assert not db.check_integrity().clean


# ---------------------------------------------------------------------
# catch-up reads the same pair
# ---------------------------------------------------------------------

#: the ``(before, after)`` rows catch-up hands the maintainers per record
#: class: an insert or revival has no before row, a ghost no after row
CATCH_UP_PAIRS = {
    RecordType.INSERT: lambda r: (None, r.row),
    RecordType.REVIVE: lambda r: (None, r.new_row),
    RecordType.UPDATE: lambda r: (r.before, r.after),
    RecordType.COUNTER_IMAGE: lambda r: (r.before, r.after),
    RecordType.GHOST: lambda r: (r.row, None),
    RecordType.CLEANUP: lambda r: None,
}
base_changes = row_changes.filter(lambda r: r.type in CATCH_UP_PAIRS)


@settings(max_examples=60, deadline=None)
@given(st.lists(base_changes, max_size=12))
def test_catch_up_derives_the_pinned_pairs_from_the_entry_pairs(records):
    db = Database()
    for record in records:
        db.log.append(record)
    commit_lsn = db.log.append(CommitRecord(1, 10))
    expected = [
        ("a", *pair) for record in records
        if record.index_name == "a"
        for pair in [CATCH_UP_PAIRS[record.type](record)] if pair is not None
    ]
    builder = ViewBuilder(db, view=None)
    prev_lsn = db.log.record_at(commit_lsn).prev_lsn
    assert builder._base_changes(prev_lsn, {"a"}) == expected
