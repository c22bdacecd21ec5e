"""Fault injection: injector scheduling semantics, every engine fault
site's soundness contract, lock-wait timeouts under the simulator, and
the automatic-retry machinery (``Session.run``) built on top.

The recurring pattern: arm a site, provoke it, then assert the engine's
*invariants* survived — views equal recomputation, committed means
durable, aborted means invisible, locks released — rather than any
particular internal state.
"""

import pytest

from repro.catalog import RowLayout
from repro.common import (
    FaultInjected,
    LogicalClock,
    ReproError,
    Row,
    SimulatedCrash,
    TransactionStateError,
)
from repro.core import Database, EngineConfig
from repro.faults import FAULT_SITES, FaultInjector, NULL_INJECTOR
from repro.query import AggregateSpec
from repro.sim import Scheduler
from repro.wal import LogManager
from repro.wal.records import InsertRecord
from repro.workload import BY_PRODUCT, SALES, BankingWorkload
from repro.views import AggregateView

#: the layout the hand-built records below are packed against
T_A = RowLayout(1, "t", ("a",))


def sales_db(strategy="escrow", **kwargs):
    db = Database(EngineConfig(aggregate_strategy=strategy, **kwargs))
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


def sale(i, product="ant", amount=10):
    return {"id": i, "product": product, "customer": 1, "amount": amount}


def armed_db(site, strategy="escrow", seed=0, **arm_kwargs):
    db = sales_db(strategy=strategy)
    injector = FaultInjector(seed=seed)
    db.install_fault_injector(injector)
    injector.arm(site, **arm_kwargs)
    return db, injector


class TestInjectorScheduling:
    def test_unknown_site_rejected(self):
        with pytest.raises(Exception):
            FaultInjector().arm("no.such.site")

    def test_bad_probability_rejected(self):
        with pytest.raises(Exception):
            FaultInjector().arm("wal.flush", probability=1.5)

    def test_null_injector_cannot_be_armed(self):
        assert not NULL_INJECTOR.active
        with pytest.raises(ReproError):
            NULL_INJECTOR.arm("wal.flush")

    def test_unarmed_site_never_fires(self):
        inj = FaultInjector()
        inj.arm("wal.flush")
        assert inj.fires("wal.append") is None
        assert inj.hits.get("wal.append") is None  # not even counted

    def test_after_gate(self):
        inj = FaultInjector()
        inj.arm("wal.flush", after=2)
        assert inj.fires("wal.flush") is None
        assert inj.fires("wal.flush") is None
        assert inj.fires("wal.flush") is not None  # 3rd hit
        assert inj.hits["wal.flush"] == 3
        assert inj.fired["wal.flush"] == 1

    def test_times_cap(self):
        inj = FaultInjector()
        inj.arm("wal.flush", times=2)
        assert inj.fires("wal.flush") is not None
        assert inj.fires("wal.flush") is not None
        assert inj.fires("wal.flush") is None  # budget exhausted
        assert inj.fired["wal.flush"] == 2

    def test_match_filters_and_does_not_count(self):
        inj = FaultInjector()
        inj.arm("wal.append", match="EscrowDelta")
        assert inj.fires("wal.append", detail="InsertRecord") is None
        assert inj.hits.get("wal.append") is None  # mismatches aren't hits
        assert inj.fires("wal.append", detail="EscrowDeltaRecord") is not None

    def test_probability_stream_is_seed_deterministic(self):
        def draws(seed):
            inj = FaultInjector(seed=seed)
            inj.arm("wal.flush", probability=0.4)
            return [inj.fires("wal.flush") is not None for _ in range(64)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)  # and the seed actually matters
        assert any(draws(7)) and not all(draws(7))

    def test_disarm(self):
        inj = FaultInjector()
        inj.arm("wal.flush")
        inj.arm("wal.append")
        inj.disarm("wal.flush")
        assert inj.active
        assert inj.armed_sites() == ["wal.append"]
        inj.disarm()
        assert not inj.active

    def test_counts_shape(self):
        inj = FaultInjector()
        inj.arm("wal.flush", times=1)
        inj.fires("wal.flush")
        inj.fires("wal.flush")
        assert inj.counts() == {
            "armed": ["wal.flush"],
            "hits": {"wal.flush": 2},
            "fired": {"wal.flush": 1},
        }

    def test_every_site_documents_an_action(self):
        for site, spec in FAULT_SITES.items():
            assert spec["action"]
            assert spec["description"]


class TestWalAppendFaults:
    def test_append_fails_after_record_lands_and_rolls_back(self):
        db = sales_db()
        with db.session() as s:
            s.insert(SALES, sale(1))  # the group exists first
        inj = FaultInjector()
        db.install_fault_injector(inj)
        inj.arm("wal.append", match="EscrowDelta")
        with pytest.raises(FaultInjected) as exc:
            with db.session() as s:
                s.insert(SALES, sale(2))
        assert exc.value.site == "wal.append"
        # The failed transaction rolled back completely: base row gone,
        # view matches recomputation, no locks or active txns left.
        assert db.read_committed(SALES, (2,)) is None
        assert db.check_all_views() == []
        assert db.active_transactions() == []
        assert db.locks.active_resources() == []
        # And the record it failed on is in the log (append-then-fail).
        names = [type(r).__name__ for r in db.log.records()]
        assert "EscrowDeltaRecord" in names

    def test_abort_path_is_immune(self):
        """ABORT/CLR/END appends never hit the fault site: aborting the
        faulted transaction itself must succeed (is_undoable gate)."""
        db, inj = armed_db("wal.append")  # no match: any undoable record
        with pytest.raises(FaultInjected):
            with db.session() as s:
                s.insert(SALES, sale(1))
        # the rollback above appended ABORT + END without re-firing
        assert db.active_transactions() == []
        assert inj.fired["wal.append"] == 1

    def test_retry_after_disarm_succeeds(self):
        db, inj = armed_db("wal.append", times=1)
        with pytest.raises(FaultInjected):
            with db.session() as s:
                s.insert(SALES, sale(1))
        with db.session() as s:  # times=1 budget spent
            s.insert(SALES, sale(1))
        assert db.read_committed(SALES, (1,))["amount"] == 10
        assert db.check_all_views() == []

    def test_lost_append_is_caught_by_the_oracle_after_crash(self):
        """The deliberately unsound site: the consistency oracle MUST
        notice, or the crash machine that arms every sound site proves
        nothing."""
        db = sales_db()
        with db.session() as s:
            s.insert(SALES, sale(1))  # the group exists first
        inj = FaultInjector()
        db.install_fault_injector(inj)
        inj.arm("wal.append.lost", match="EscrowDelta")
        with db.session() as s:
            s.insert(SALES, sale(2))  # delta record silently dropped
        inj.disarm()
        assert db.read_committed(BY_PRODUCT, ("ant",)) is not None  # online ok
        db.simulate_crash_and_recover()
        problems = db.check_all_views()
        assert problems, "lost WAL record must surface as an inconsistency"


class TestWalFlushFaults:
    def test_flush_failure_before_any_advance(self):
        inj = FaultInjector()
        inj.arm("wal.flush", times=1)
        log = LogManager(faults=inj)
        log.append(InsertRecord(1, T_A, (0,), Row({"a": 0})))
        log.append(InsertRecord(1, T_A, (1,), Row({"a": 1})))
        with pytest.raises(FaultInjected):
            log.flush()
        assert log.flushed_lsn == 0  # nothing became durable
        log.flush()
        assert log.flushed_lsn == log.tail_lsn()

    def test_torn_tail_advances_all_but_last(self):
        inj = FaultInjector()
        inj.arm("wal.torn_tail", times=1)
        log = LogManager(faults=inj)
        log.append(InsertRecord(1, T_A, (0,), Row({"a": 0})))
        log.append(InsertRecord(1, T_A, (1,), Row({"a": 1})))
        log.append(InsertRecord(1, T_A, (2,), Row({"a": 2})))
        with pytest.raises(FaultInjected):
            log.flush()
        tail = log.tail_lsn()
        assert log.flushed_lsn == tail - 1
        assert log.crash() == 1  # exactly the torn record
        assert log.tail_lsn() == tail - 1

    def test_commit_point_flush_failure_escalates_to_crash(self):
        """After the COMMIT record is appended, a flush failure cannot be
        an online abort (recovery could see the COMMIT and declare the
        transaction a winner) — it must be a crash."""
        db, inj = armed_db("wal.flush", times=1)
        with pytest.raises(SimulatedCrash) as exc:
            with db.session() as s:
                s.insert(SALES, sale(1))
        assert exc.value.site == "wal.flush"
        db.simulate_crash_and_recover()
        # COMMIT never became durable -> loser, fully rolled back.
        assert db.read_committed(SALES, (1,)) is None
        assert db.check_all_views() == []

    def test_torn_commit_record_makes_txn_a_loser(self):
        db, inj = armed_db("wal.torn_tail", times=1)
        with pytest.raises(SimulatedCrash):
            with db.session() as s:
                s.insert(SALES, sale(1))
        db.simulate_crash_and_recover()
        assert db.read_committed(SALES, (1,)) is None
        assert db.check_all_views() == []


class TestCommitCrashFaults:
    def test_crash_before_commit_point_loses_the_txn(self):
        db, inj = armed_db("txn.commit.before", times=1)
        with pytest.raises(SimulatedCrash) as exc:
            with db.session() as s:
                s.insert(SALES, sale(1))
        assert exc.value.committed is False
        db.simulate_crash_and_recover()
        assert db.read_committed(SALES, (1,)) is None
        assert db.check_all_views() == []

    def test_crash_after_commit_point_preserves_the_txn(self):
        db, inj = armed_db("txn.commit.after", times=1)
        with pytest.raises(SimulatedCrash) as exc:
            with db.session() as s:
                s.insert(SALES, sale(1))
        assert exc.value.committed is True
        db.simulate_crash_and_recover()
        # Durability: the flushed COMMIT makes it a winner after recovery.
        assert db.read_committed(SALES, (1,))["amount"] == 10
        row = db.read_committed(BY_PRODUCT, ("ant",))
        assert row["n_sales"] == 1 and row["revenue"] == 10
        assert db.check_all_views() == []

    def test_crash_mid_view_maintenance_recovers_consistently(self):
        db, inj = armed_db("view.midapply", times=1)
        with pytest.raises(SimulatedCrash) as exc:
            with db.session() as s:
                s.insert(SALES, sale(1))
        assert exc.value.site == "view.midapply"
        db.simulate_crash_and_recover()
        # Whatever prefix of the statement's actions ran, recovery must
        # leave base and views in agreement (here: loser rolled back).
        assert db.check_all_views() == []
        assert db.read_committed(SALES, (1,)) is None


class TestCleanerInterruption:
    def test_interrupted_cleaner_requeues_candidate(self):
        db = sales_db()
        with db.session() as s:
            s.insert(SALES, sale(1))
        with db.session() as s:
            s.delete(SALES, (1,))
        assert len(db.cleanup) > 0
        injector = FaultInjector()
        db.install_fault_injector(injector)
        injector.arm("cleanup.interrupt")
        assert db.run_ghost_cleanup() == 0
        assert db.cleaner.requeued >= 1
        assert len(db.cleanup) > 0  # nothing lost
        injector.disarm()
        assert db.run_ghost_cleanup() >= 1
        assert db.read_committed(SALES, (1,)) is None


class TestLockFaults:
    def test_spurious_deny_aborts_and_is_retryable(self):
        db, inj = armed_db("lock.deny", times=1)
        with pytest.raises(FaultInjected) as exc:
            with db.session() as s:
                s.insert(SALES, sale(1))
        assert exc.value.site == "lock.deny"
        assert db.locks.stats.denials == 1
        with db.session() as s:  # budget spent: clean retry
            s.insert(SALES, sale(1))
        assert db.check_all_views() == []

    @staticmethod
    def lock_traffic(armed, workload):
        """``workload`` on a fresh engine, unarmed or with ``lock.deny``
        and ``lock.delay`` armed at probability 0: the lock counters, the
        lock events and the injector's hits."""
        db = sales_db() if workload == "order_entry" else Database(
            EngineConfig(aggregate_strategy="escrow")
        )
        bank = None
        if workload == "banking":
            bank = BankingWorkload(
                db, n_branches=2, accounts_per_branch=4, seed=5
            ).setup()
        injector = FaultInjector(seed=0)
        if armed:
            db.install_fault_injector(injector)
            injector.arm("lock.deny", probability=0.0)
            injector.arm("lock.delay", probability=0.0)
        events = []
        db.tracer.enable(categories=("lock",))
        db.tracer.listeners.append(
            lambda e: events.append((e.name, e.txn_id, e.fields))
        )
        before = db.stats()["lock"]
        if bank is None:  # order-entry inserts, then a scan
            with db.session() as s:
                for i in range(1, 5):
                    s.insert(SALES, sale(i, product=f"p{i % 2}"))
            with db.session() as s:
                assert len(s.scan(BY_PRODUCT)) == 2
        else:
            scheduler = Scheduler(db, custom_executor=bank.op_executor())
            for _ in range(4):
                scheduler.add_session(bank.transfer_program(), txns=6)
            scheduler.add_session(bank.audit_program(), txns=2)
            scheduler.run()
            bank.check_conservation()
        after = db.stats()["lock"]
        assert injector.fired == {}
        stats = {name: after[name] - before[name] for name in after}
        return stats, events, injector.hits

    @pytest.mark.parametrize("workload", ["order_entry", "banking"])
    def test_an_armed_site_that_never_fires_changes_no_lock_traffic(
        self, workload
    ):
        """A request the held-lock table covers is answered from it
        whether or not a site is armed, so the armed sites see exactly
        the requests the lock manager counts."""
        stats, events, hits = self.lock_traffic(True, workload)
        assert (stats, events) == self.lock_traffic(False, workload)[:2]
        assert hits["lock.deny"] == stats["requests"]
        assert stats["covered"] > 0 and events
        if workload == "banking":
            assert stats["waits"] > 0

    def test_a_lock_the_transaction_holds_is_never_denied(self):
        """Re-reading a row is answered from the transaction's held-lock
        table, so an armed ``lock.deny`` is not hit and cannot fire; the
        first lock the transaction does not hold is denied."""
        db = sales_db()
        with db.session() as s:
            s.insert(SALES, sale(1))
            s.insert(SALES, sale(2))
        injector = FaultInjector(seed=0)
        db.install_fault_injector(injector)
        txn = db.begin()
        assert db.read(txn, SALES, (1,)) is not None
        injector.arm("lock.deny")  # fires at every hit
        for _ in range(3):
            assert db.read(txn, SALES, (1,)) is not None
        assert injector.hits.get("lock.deny", 0) == 0
        with pytest.raises(FaultInjected):
            db.read(txn, SALES, (2,))
        assert injector.fired == {"lock.deny": 1}
        db.abort(txn)

    def test_injected_delay_resolves_under_the_simulator(self):
        db, inj = armed_db("lock.delay", times=1, delay=7)
        sched = Scheduler(db)
        sched.add_session(lambda: iter([("insert", SALES, sale(1))]), txns=1)
        result = sched.run()
        assert result.committed == 1
        assert inj.fired["lock.delay"] == 1
        assert db.read_committed(SALES, (1,)) is not None
        assert db.check_all_views() == []

    def test_lock_wait_timeout_under_the_simulator(self):
        """Under xlock two writers to the same group serialize; a short
        lock_wait_timeout denies the second, the scheduler retries it,
        and everyone eventually commits."""
        db = sales_db(strategy="xlock", lock_wait_timeout=10)

        def writer(i):
            def program():
                yield ("insert", SALES, sale(i))
                yield ("think", 50)  # hold the group's X lock a while

            return program

        sched = Scheduler(db, max_retries=8)
        sched.add_session(writer(1), txns=1)
        sched.add_session(writer(2), txns=1)
        result = sched.run()
        assert result.committed == 2
        assert db.locks.stats.timeouts >= 1
        assert result.aborted.as_dict().get("lock", 0) >= 1
        assert result.retries >= 1
        assert db.check_all_views() == []


class TestRunTransaction:
    def test_first_try_success(self):
        db = sales_db()
        key = db.session().run(lambda s: s.insert(SALES, sale(1)))
        assert key == (1,)
        stats = db.stats()["retries"]
        assert stats["runs"] == 1
        assert stats["retried"] == 0
        assert stats["attempts"]["max"] == 1

    def test_retries_injected_fault_until_success(self):
        db, inj = armed_db("wal.append", times=2)
        start = db.clock.now()
        key = db.session().run(
            lambda s: s.insert(SALES, sale(1)), retries=3
        )
        assert key == (1,)
        assert db.read_committed(SALES, (1,)) is not None
        stats = db.stats()["retries"]
        assert stats["runs"] == 1
        assert stats["retried"] == 1
        assert stats["attempts"]["max"] == 3  # two faults + one success
        assert stats["backoff"]["count"] == 2
        assert db.clock.now() > start  # backoff advanced simulated time
        assert db.aborted_count == 2 and db.committed_count == 1

    def test_exhaustion_reraises_and_counts_gave_up(self):
        db, inj = armed_db("wal.append")  # fires every attempt
        with pytest.raises(FaultInjected):
            db.session().run(
                lambda s: s.insert(SALES, sale(1)), retries=2
            )
        stats = db.stats()["retries"]
        assert stats["gave_up"] == 1
        assert stats["attempts"]["max"] == 3  # retries=2 -> 3 attempts
        assert db.active_transactions() == []

    def test_backoff_schedule_is_deterministic(self):
        def run_one():
            db, inj = armed_db("wal.append", times=3)
            db.session().run(
                lambda s: s.insert(SALES, sale(1)), retries=5
            )
            return db.stats()["retries"], db.clock.now()

        assert run_one() == run_one()

    def test_backoff_grows_exponentially_within_jitter(self):
        db, inj = armed_db("wal.append")  # fires every attempt
        db.tracer.enable()
        base = db.config.retry_backoff_base
        cap = db.config.retry_backoff_cap
        with pytest.raises(FaultInjected):
            db.session().run(lambda s: s.insert(SALES, sale(1)), retries=10)
        retries = db.tracer.events(name="txn_retry")
        assert [e.fields["attempt"] for e in retries] == list(range(1, 11))
        for event in retries:
            attempt, b = event.fields["attempt"], event.fields["backoff"]
            lo = min(cap, base * 2 ** (attempt - 1))
            assert lo <= b <= lo + base

    def test_seeded_schedule_matches_the_pinned_golden(self):
        """The backoffs, retry events and clock of one seeded run, taken
        at PR 20 — when the retry loop still lived on ``Database`` — for
        ``retry_seed=7``: moving it into ``Session.run`` moved no draw."""
        db = sales_db(retry_seed=7)
        db.install_fault_injector(FaultInjector(seed=0)).arm("wal.append")
        db.tracer.enable()
        with pytest.raises(FaultInjected):
            db.session().run(lambda s: s.insert(SALES, sale(1)), retries=6)
        assert [
            (e.txn_id, e.ts, e.fields["attempt"], e.fields["backoff"],
             e.fields["reason"])
            for e in db.tracer.events(name="txn_retry")
        ] == [
            (1, 0, 1, 6, "fault wal.append"),
            (2, 6, 2, 9, "fault wal.append"),
            (3, 15, 3, 19, "fault wal.append"),
            (4, 34, 4, 32, "fault wal.append"),
            (5, 66, 5, 64, "fault wal.append"),
            (6, 130, 6, 68, "fault wal.append"),
        ]
        assert db.clock.now() == 198
        stats = db.stats()["retries"]
        assert stats["gave_up"] == 1 and stats["backoff"]["count"] == 6

    def test_simulated_crash_is_not_retried(self):
        db, inj = armed_db("txn.commit.before", times=1)
        with pytest.raises(SimulatedCrash):
            db.session().run(
                lambda s: s.insert(SALES, sale(1)), retries=5
            )
        assert db.stats()["retries"]["runs"] == 0  # crash: no verdict

    def test_non_retryable_error_aborts_and_raises(self):
        db = sales_db()

        def boom(s):
            s.insert(SALES, sale(1))
            raise ValueError("application bug")

        with pytest.raises(ValueError):
            db.session().run(boom, retries=5)
        assert db.active_transactions() == []
        assert db.read_committed(SALES, (1,)) is None
        assert db.stats()["retries"]["runs"] == 0

    def test_fn_may_resolve_the_transaction_itself(self):
        db = sales_db()

        def insert_and_commit(s):
            s.insert(SALES, sale(1))
            db.commit(s.current_transaction)
            return "done"

        assert db.session().run(insert_and_commit) == "done"
        assert db.committed_count == 1


class TestSessionRun:
    def test_retries_through_session(self):
        db, inj = armed_db("wal.append", times=1)
        session = db.session()
        key = session.run(lambda s: s.insert(SALES, sale(1)), retries=2)
        assert key == (1,)
        assert not session.in_transaction()
        assert db.stats()["retries"]["retried"] == 1

    def test_rejected_inside_explicit_transaction(self):
        db = sales_db()
        session = db.session()
        session.begin()
        with pytest.raises(TransactionStateError):
            session.run(lambda s: s.insert(SALES, sale(1)))
        session.rollback()

    def test_session_idle_after_run(self):
        db, inj = armed_db("wal.append", times=1)
        session = db.session()
        with pytest.raises(FaultInjected):
            session.run(lambda s: s.insert(SALES, sale(1)), retries=0)
        assert not session.in_transaction()
        session.insert(SALES, sale(9))  # autocommit still works
        assert db.read_committed(SALES, (9,)) is not None


class TestSessionCommitFailureRegression:
    """After a failed commit() the session must return to idle with the
    transaction aborted — not leak an ACTIVE txn holding locks."""

    def test_failed_explicit_commit_leaves_session_idle(self):
        db = sales_db(maintenance_mode="commit_fold")
        injector = FaultInjector()
        db.install_fault_injector(injector)
        session = db.session()
        session.begin()
        session.insert(SALES, sale(1))
        # commit_fold acquires the view-group lock inside commit();
        # deny exactly that acquisition.
        injector.arm("lock.deny", match=BY_PRODUCT)
        with pytest.raises(FaultInjected):
            session.commit()
        assert not session.in_transaction()
        assert db.active_transactions() == []
        assert db.locks.active_resources() == []
        injector.disarm()
        session.insert(SALES, sale(2))  # next autocommit statement works
        assert db.read_committed(SALES, (2,)) is not None
        assert db.check_all_views() == []

    def test_failed_autocommit_leaves_session_idle(self):
        db = sales_db(maintenance_mode="commit_fold")
        injector = FaultInjector()
        db.install_fault_injector(injector)
        session = db.session()
        injector.arm("lock.deny", match=BY_PRODUCT)
        with pytest.raises(FaultInjected):
            session.insert(SALES, sale(1))
        assert not session.in_transaction()
        assert db.active_transactions() == []
        injector.disarm()
        session.insert(SALES, sale(1))
        assert db.read_committed(SALES, (1,)) is not None


class TestStatsSurface:
    def test_stats_reports_faults_and_retries(self):
        db, inj = armed_db("wal.append", times=1)
        db.session().run(lambda s: s.insert(SALES, sale(1)))
        stats = db.stats()
        assert stats["faults"]["armed"] == ["wal.append"]
        assert stats["faults"]["fired"] == {"wal.append": 1}
        assert stats["retries"]["runs"] == 1
        assert "timeouts" in stats["lock"]

    def test_fault_events_are_traced(self):
        db, inj = armed_db("wal.append", times=1)
        db.tracer.enable()
        db.session().run(lambda s: s.insert(SALES, sale(1)))
        fault_events = db.tracer.events(name="fault_injected")
        assert len(fault_events) == 1
        assert fault_events[0].fields["site"] == "wal.append"
        assert fault_events[0].fields["action"] == "raise"
        retry_events = db.tracer.events(name="txn_retry")
        assert len(retry_events) == 1
        assert retry_events[0].fields["attempt"] == 1
        assert retry_events[0].fields["reason"] == "fault wal.append"

    def test_injector_survives_crash_recovery(self):
        db, inj = armed_db("txn.commit.after", times=1)
        with pytest.raises(SimulatedCrash):
            with db.session() as s:
                s.insert(SALES, sale(1))
        db.simulate_crash_and_recover()
        assert db.faults is inj
        assert db.log.faults is inj
        assert db.locks.faults is inj
        # and the rebuilt managers still honour it
        inj.arm("lock.deny", times=1)
        with pytest.raises(FaultInjected):
            with db.session() as s:
                s.insert(SALES, sale(2))
