"""Restartable recovery: crashes *inside* recovery converge.

ARIES recovery must itself be crash-safe — a crash during analysis,
redo, or undo leaves a half-recovered log, and the next attempt must
finish the job, not undo twice or replay into inconsistency. The
mechanism is durable CLRs (undo hardens each compensation as it is
written, so a re-entered undo skips already-compensated work via
``undo_next_lsn``). These tests sweep a crash through *every* record
boundary of every recovery phase, storm recovery with nested crashes,
and pin the whole pipeline with a Hypothesis idempotence property.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import SimulatedCrash
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.query import AggregateSpec
from repro.storage.bufferpool import durable_winners
from repro.wal import RecordType
from repro.wal.segments import load_segments
from repro.workload import BY_PRODUCT, SALES
from repro.views import AggregateView

RECOVERY_SITES = ("recovery.analysis", "recovery.redo", "recovery.undo")


def build_db(**kwargs):
    db = Database(EngineConfig(**kwargs))
    db.create_table(SALES, ("id", "product", "customer", "amount"), ("id",))
    db.create_view(AggregateView(
        BY_PRODUCT,
        SALES,
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n_sales"),
            AggregateSpec.sum_of("revenue", "amount"),
        ],
    ))
    return db


def run_workload(db):
    """Commits, an abort, a delete-to-zero, a group move — and a loser
    whose flushed records give undo real work at recovery time."""
    with db.session() as s:
        s.insert(SALES, {"id": 1, "product": "a", "customer": 1, "amount": 10})
        s.insert(SALES, {"id": 2, "product": "a", "customer": 2, "amount": 20})
        s.insert(SALES, {"id": 3, "product": "b", "customer": 1, "amount": 5})
    t_abort = db.begin()
    db.insert(t_abort, SALES, {"id": 4, "product": "a", "customer": 1, "amount": 99})
    db.abort(t_abort)
    with db.session() as s:
        s.delete(SALES, (3,))
    with db.session() as s:
        s.update(SALES, (1,), {"product": "b"})
    loser = db.begin()
    db.insert(loser, SALES, {"id": 5, "product": "a", "customer": 3, "amount": 7})
    db.insert(loser, SALES, {"id": 6, "product": "c", "customer": 3, "amount": 8})
    db.log.flush()  # loser's records durable, COMMIT never written


def state_snapshot(db):
    """Full index state: every key's current row and ghost flag."""
    return {
        name: {
            key: (record.current_row.as_dict(), record.is_ghost)
            for key, record in index.scan(include_ghosts=True)
        }
        for name, index in db._indexes.items()
    }


def recover_until_done(db, max_attempts=50):
    """Re-enter recovery after every nested crash, like a restart loop."""
    crashes = 0
    for _ in range(max_attempts):
        try:
            return db.simulate_crash_and_recover(), crashes
        except SimulatedCrash:
            crashes += 1
    raise AssertionError("recovery never converged")


class TestCrashSweep:
    """Crash recovery at every record boundary of every phase; the final
    state must equal the single-shot reference recovery."""

    def test_sweep_every_boundary_every_phase(self, tmp_path):
        reference = build_db()
        run_workload(reference)
        reference.dump_wal_segments(tmp_path)

        single_shot = build_db()
        ref_report = single_shot.load_wal_segments_and_recover(tmp_path)
        ref_state = state_snapshot(single_shot)
        assert ref_report.losers  # the sweep must exercise undo

        for site in RECOVERY_SITES:
            boundary = 0
            while True:
                db = build_db()
                db.log = load_segments(tmp_path)
                injector = db.install_fault_injector(FaultInjector())
                injector.arm(site, after=boundary, times=1)
                report, crashes = recover_until_done(db)
                if injector.fired.get(site, 0) == 0:
                    # the phase has fewer than `boundary` evaluations:
                    # every boundary of this site has been swept
                    assert boundary > 0, f"{site} never evaluated"
                    break
                label = f"{site}@{boundary}"
                assert crashes == 1, label
                assert report.restarts == 1, label
                assert report.winners == ref_report.winners, label
                assert report.losers == ref_report.losers, label
                assert state_snapshot(db) == ref_state, label
                assert db.check_all_views() == [], label
                boundary += 1


class TestCrashStorm:
    def test_nested_crashes_converge(self, tmp_path):
        reference = build_db()
        run_workload(reference)
        reference.dump_wal_segments(tmp_path)

        single_shot = build_db()
        ref_report = single_shot.load_wal_segments_and_recover(tmp_path)
        ref_state = state_snapshot(single_shot)

        db = build_db(sanitizers=True)
        db.log = load_segments(tmp_path)
        injector = db.install_fault_injector(FaultInjector(seed=11))
        schedule = [
            ("recovery.analysis", 2),
            ("recovery.redo", 1),
            ("recovery.undo", 0),
            ("recovery.analysis", 9),
            ("recovery.redo", 5),
            ("recovery.analysis", 15),
        ]
        crashes = 0
        report = None
        for attempt in range(len(schedule) + 1):
            injector.disarm()
            if attempt < len(schedule):
                site, after = schedule[attempt]
                injector.arm(site, after=after, times=1)
            try:
                report = db._rebuild_from_log()
                break
            except SimulatedCrash:
                crashes += 1
        assert report is not None
        assert crashes >= 5
        assert report.restarts == crashes
        assert report.winners == ref_report.winners
        assert report.losers == ref_report.losers
        assert state_snapshot(db) == ref_state
        assert db.check_all_views() == []
        assert db.check_integrity().clean
        assert db.sanitizers.check(assume_quiescent=True) == []
        assert db.counters.get("recovery.restarts") == crashes

    def test_restarted_event_and_counter(self):
        db = build_db()
        run_workload(db)
        db.tracer.enable()
        injector = db.install_fault_injector(FaultInjector())
        injector.arm("recovery.redo", after=2, times=1)
        report, crashes = recover_until_done(db)
        assert crashes == 1
        events = db.tracer.events(name="recovery_restarted")
        assert [e.fields["attempt"] for e in events] == [2]
        assert report.restarts == 1
        # the engine is fully usable after the storm
        with db.session() as s:
            s.insert(SALES, {"id": 50, "product": "z", "customer": 1, "amount": 1})
        assert db.read_committed(BY_PRODUCT, ("z",))["n_sales"] == 1

    def test_salvage_report_survives_recovery_restarts(self):
        """A corrupt log + a crash inside the re-entered recovery: the
        completed report must still carry the salvage classification
        (the truncation happened on the *first* attempt; re-entries see
        an already-clean log)."""
        db = build_db()
        run_workload(db)
        with db.session() as s:
            s.insert(SALES, {"id": 7, "product": "d", "customer": 1, "amount": 3})
        db.log.flush()
        commits = db.log.records_by_type(RecordType.COMMIT)
        db.log.corrupt(commits[-1].lsn)
        injector = db.install_fault_injector(FaultInjector())
        injector.arm("recovery.redo", after=3, times=1)
        report, crashes = recover_until_done(db)
        assert crashes == 1
        assert report.restarts == 1
        assert report.salvage is not None
        assert report.salvage["lost_commits"] != []
        assert db.check_all_views() == []


ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=6),  # id
        st.sampled_from(["a", "b", "c"]),  # product
        st.integers(min_value=-5, max_value=20),  # amount
        st.booleans(),  # commit this txn?
    ),
    min_size=1,
    max_size=25,
)


class TestRecoveryIdempotence:
    @given(script=ops)
    @settings(deadline=None, max_examples=30)
    def test_recover_twice_equals_once(self, script):
        """Full-pipeline idempotence: a second recovery over the log the
        first one produced changes nothing."""
        db = build_db()
        for kind, row_id, product, amount, commit in script:
            txn = db.begin()
            try:
                if kind == "insert":
                    db.insert(txn, SALES, {
                        "id": row_id, "product": product,
                        "customer": 1, "amount": amount,
                    })
                elif kind == "delete":
                    db.delete(txn, SALES, (row_id,))
                else:
                    db.update(txn, SALES, (row_id,), {"amount": amount})
            except Exception:
                try:
                    db.abort(txn)
                except Exception:
                    pass
                continue
            if commit:
                db.commit(txn)
            else:
                db.log.flush()  # durable loser for recovery to undo
        first = db.simulate_crash_and_recover()
        state_once = state_snapshot(db)
        second = db.simulate_crash_and_recover()
        assert state_snapshot(db) == state_once
        assert second.winners == first.winners
        assert second.losers == set()  # first recovery ended every loser
        assert db.check_all_views() == []

    def test_recover_twice_equals_once_over_a_durable_removal(self):
        """A key erased after the last checkpoint from a leaf written back
        since: no image holds it any more, redo must not bring it back,
        and recovery, which only reads the store, gates the same way
        every time."""
        db = build_db(buffer_pool_frames=2, btree_order=4)
        for i in range(1, 5):
            with db.session() as s:
                s.insert(SALES, {
                    "id": i, "product": "ab"[i % 2], "customer": 1, "amount": i,
                })
        db.take_checkpoint()
        with db.session() as s:
            s.delete(SALES, (2,))
        db.run_ghost_cleanup()  # CLEANUP: key 2 leaves its leaf
        with db.session() as s:  # dirty more leaves than the table holds,
            for i in range(10, 16):  # so the one that held 2 is written
                s.insert(SALES, {
                    "id": i, "product": "c", "customer": 1, "amount": i,
                })
        table, _, _ = durable_winners(db._store)
        assert (SALES, (2,)) not in table
        assert {(SALES, (i,)) for i in (1, 3, 4)} <= set(table)

        first = db.simulate_crash_and_recover()
        assert first.pages_loaded > 0 and first.redo_skipped > 0
        state_once = state_snapshot(db)
        assert (2,) not in state_once[SALES]
        second = db.simulate_crash_and_recover()
        assert state_snapshot(db) == state_once
        assert db.check_all_views() == []
        assert db.check_integrity().clean
