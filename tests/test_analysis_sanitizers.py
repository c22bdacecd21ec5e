"""Tests for the protocol sanitizers (``repro.analysis``): canonical
non-serializable anomalies are flagged with the right cycle, serial and
2PL histories pass, forced WAL/2PL breaches in hand-written event
streams are detected, and the real engine runs clean with the suite
attached — including group commit and crash/recovery."""

import pytest

from repro.analysis import (
    History,
    SanitizerSuite,
    SerializabilitySanitizer,
    TwoPhaseLockingSanitizer,
    Violation,
    WalRuleSanitizer,
    check_trace,
)
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.sim import Scheduler
from repro.workload import BankingWorkload


# ---------------------------------------------------------------------
# serializability: canonical anomalies
# ---------------------------------------------------------------------


def _one_cycle(history, *txns):
    violations = history.check()
    assert len(violations) == 1
    (v,) = violations
    assert v.rule == "serializability"
    assert "cycle" in v.message
    for txn in txns:
        assert f"T{txn}" in v.message
    return v


def test_lost_update_flagged():
    h = History()
    h.read(1, "acct", ("x",))
    h.read(2, "acct", ("x",))
    h.write(1, "acct", ("x",))
    h.write(2, "acct", ("x",))
    h.commit(1)
    h.commit(2)
    v = _one_cycle(h, 1, 2)
    assert "read/write" in v.message


def test_write_skew_flagged():
    # T1 reads both doctors, takes x off call; T2 reads both, takes y
    # off call. Each writes what the other read: a T1 <-> T2 cycle.
    h = History()
    h.read(1, "oncall", ("x",))
    h.read(1, "oncall", ("y",))
    h.read(2, "oncall", ("x",))
    h.read(2, "oncall", ("y",))
    h.write(1, "oncall", ("x",))
    h.write(2, "oncall", ("y",))
    h.commit(1)
    h.commit(2)
    _one_cycle(h, 1, 2)


def test_phantom_against_aggregate_view_flagged():
    # T1 range-scans branch B's sales and writes the branch total into
    # the aggregate view. T2 inserts a new sale into the scanned gap and
    # folds its delta into the same total. T1's scan missed T2's row
    # (read/insert on the gap: T1 -> T2) but T1's total overwrote T2's
    # (write/write on the view key: T2 -> T1): a phantom cycle.
    h = History()
    h.scan(1, "sales", [("B", 1), ("B", 2), ("C", 1)])
    h.insert(2, "sales", ("B", 3), next_key=("C", 1))
    h.write(2, "branch_totals", ("B",))
    h.commit(2)
    h.write(1, "branch_totals", ("B",))
    h.commit(1)
    v = _one_cycle(h, 1, 2)
    assert "read/insert" in v.message or "insert/read" in v.message


def test_serial_history_passes():
    h = History()
    h.read(1, "acct", ("x",))
    h.write(1, "acct", ("x",))
    h.commit(1)
    h.read(2, "acct", ("x",))
    h.write(2, "acct", ("x",))
    h.commit(2)
    assert h.check() == []


def test_2pl_interleaving_passes():
    # An interleaving a 2PL engine would actually produce: all edges
    # point the same way (T1 -> T2), so the history is serializable.
    h = History()
    h.read(1, "acct", ("x",))
    h.write(1, "acct", ("x",))
    h.read(2, "acct", ("y",))
    h.commit(1)
    h.read(2, "acct", ("x",))
    h.write(2, "acct", ("y",))
    h.commit(2)
    assert h.check() == []


def test_escrow_increments_commute():
    # Concurrent escrow deltas on one aggregate row are the paper's
    # point: both update the same key, no precedence edge.
    h = History()
    h.escrow(1, "totals", ("B",))
    h.escrow(2, "totals", ("B",))
    h.commit(1)
    h.commit(2)
    assert h.check() == []


def test_aborted_transaction_imposes_no_order():
    h = History()
    h.read(1, "acct", ("x",))
    h.read(2, "acct", ("x",))
    h.write(1, "acct", ("x",))
    h.write(2, "acct", ("x",))
    h.commit(1)
    h.abort(2)
    assert h.check() == []


def test_table_claim_conflicts_with_key_ops():
    # An escalated whole-index write claim orders against every key.
    h = History()
    h.read(1, "acct", ("x",))
    h.table_claim(2, "acct", "write")
    h.write(1, "acct", ("y",))
    h.commit(1)
    h.commit(2)
    _one_cycle(h, 1, 2)


# ---------------------------------------------------------------------
# WAL rule: forced violations in hand-written streams
# ---------------------------------------------------------------------


def _wal_events(*triples):
    return [
        {"name": name, "txn_id": txn, "fields": fields}
        for name, txn, fields in triples
    ]


def test_wal_commit_before_flush_detected():
    stream = _wal_events(
        ("wal_append", 1, {"lsn": 1, "record": "UpdateRecord"}),
        ("wal_append", 1, {"lsn": 2, "record": "CommitRecord"}),
        ("txn_commit", 1, {}),
    )
    violations = check_trace(stream)
    assert any(
        v.rule == "wal" and "before its COMMIT record" in v.message
        for v in violations
    )


def test_wal_commit_after_flush_clean():
    stream = _wal_events(
        ("wal_append", 1, {"lsn": 1, "record": "UpdateRecord"}),
        ("wal_append", 1, {"lsn": 2, "record": "CommitRecord"}),
        ("wal_flush", 1, {"flushed_lsn": 2}),
        ("txn_commit", 1, {}),
    )
    assert check_trace(stream) == []


def test_wal_commit_without_commit_record_detected():
    stream = _wal_events(
        ("wal_append", 1, {"lsn": 1, "record": "UpdateRecord"}),
        ("txn_commit", 1, {}),
    )
    violations = check_trace(stream)
    assert any(
        v.rule == "wal" and "no COMMIT record" in v.message for v in violations
    )


def test_wal_non_monotone_lsn_detected():
    stream = _wal_events(
        ("wal_append", 1, {"lsn": 5, "record": "UpdateRecord"}),
        ("wal_append", 1, {"lsn": 3, "record": "UpdateRecord"}),
    )
    violations = check_trace(stream)
    assert any(v.rule == "wal" and "not monotone" in v.message
               for v in violations)


def test_wal_crash_rewind_is_legal():
    # Flushed through 2, appended to 4, crash truncates the suffix and
    # the log resumes at flushed + 1: not a monotonicity violation.
    stream = _wal_events(
        ("wal_append", 1, {"lsn": 1, "record": "UpdateRecord"}),
        ("wal_append", 1, {"lsn": 2, "record": "UpdateRecord"}),
        ("wal_flush", None, {"flushed_lsn": 2}),
        ("wal_append", 2, {"lsn": 3, "record": "UpdateRecord"}),
        ("wal_append", 2, {"lsn": 4, "record": "UpdateRecord"}),
        ("wal_append", 3, {"lsn": 3, "record": "UpdateRecord"}),
    )
    assert check_trace(stream) == []


def test_wal_flush_regression_detected():
    stream = _wal_events(
        ("wal_append", 1, {"lsn": 3, "record": "UpdateRecord"}),
        ("wal_flush", None, {"flushed_lsn": 3}),
        ("wal_flush", None, {"flushed_lsn": 1}),
    )
    violations = check_trace(stream)
    assert any(v.rule == "wal" and "regressed" in v.message
               for v in violations)


def test_wal_flush_beyond_tail_detected():
    stream = _wal_events(
        ("wal_append", 1, {"lsn": 1, "record": "UpdateRecord"}),
        ("wal_flush", None, {"flushed_lsn": 9}),
    )
    violations = check_trace(stream)
    assert any(v.rule == "wal" and "beyond the append tail" in v.message
               for v in violations)


def test_group_commit_pending_then_settled():
    # Under the group-commit exemption, commit-visible-before-durable is
    # pending, not a violation — until quiescence says otherwise.
    pending = _wal_events(
        ("wal_append", 1, {"lsn": 1, "record": "CommitRecord"}),
        ("txn_commit", 1, {}),
    )
    assert check_trace(pending, group_commit=True) == []
    unsettled = check_trace(
        pending, group_commit=True, assume_quiescent=True
    )
    assert any("never became durable" in v.message for v in unsettled)
    settled = pending + _wal_events(("wal_flush", None, {"flushed_lsn": 1}))
    assert check_trace(settled, group_commit=True, assume_quiescent=True) == []


def test_group_commit_retraction_excuses_durability():
    suite = SanitizerSuite(group_commit=True)
    for event in _wal_events(
        ("wal_append", 1, {"lsn": 1, "record": "CommitRecord"}),
        ("txn_commit", 1, {}),
    ):
        suite.observe(event)
    suite.notice_retraction([1])
    assert suite.check(assume_quiescent=True) == []


# ---------------------------------------------------------------------
# 2PL: forced violations in hand-written streams
# ---------------------------------------------------------------------


def test_acquire_after_release_detected():
    stream = [
        {"name": "lock_acquire", "txn_id": 1,
         "fields": {"resource": ("key", "acct", ["x"]), "mode": "LockMode.X"}},
        {"name": "lock_release", "txn_id": 1, "fields": {"count": 1}},
        {"name": "lock_acquire", "txn_id": 1,
         "fields": {"resource": ("key", "acct", ["y"]), "mode": "LockMode.X"}},
    ]
    violations = check_trace(stream)
    assert any(
        v.rule == "2pl" and "growing phase" in v.message for v in violations
    )


def test_release_before_commit_record_detected():
    stream = [
        {"name": "wal_append", "txn_id": 1,
         "fields": {"lsn": 1, "record": "UpdateRecord"}},
        {"name": "lock_release", "txn_id": 1, "fields": {"count": 1}},
        {"name": "wal_append", "txn_id": 1,
         "fields": {"lsn": 2, "record": "CommitRecord"}},
    ]
    violations = check_trace(stream)
    assert any(
        v.rule == "2pl" and "strict 2PL" in v.message for v in violations
    )


def test_release_after_commit_record_clean():
    stream = [
        {"name": "wal_append", "txn_id": 1,
         "fields": {"lsn": 1, "record": "CommitRecord"}},
        {"name": "lock_release", "txn_id": 1, "fields": {"count": 1}},
    ]
    assert check_trace(stream) == []


# ---------------------------------------------------------------------
# the live engine is clean
# ---------------------------------------------------------------------


def _run_bank(db, seed=7, sessions=4, txns=4):
    bank = BankingWorkload(
        db, n_branches=3, accounts_per_branch=6, seed=seed
    ).setup()
    sched = Scheduler(
        db, max_retries=8, cleanup_interval=100,
        custom_executor=bank.op_executor(),
    )
    for _ in range(sessions):
        sched.add_session(bank.transfer_program(think=1), txns=txns)
    return bank, sched.run()


def test_engine_config_attaches_suite():
    db = Database(EngineConfig(sanitizers=True))
    assert isinstance(db.sanitizers, SanitizerSuite)
    assert db.sanitizers.observe in db.tracer.listeners
    assert Database(EngineConfig()).sanitizers is None


def test_clean_concurrent_run_passes():
    db = Database(EngineConfig(sanitizers=True))
    _, result = _run_bank(db)
    assert result.committed > 0
    assert db.sanitizers.check(assume_quiescent=True) == []


def test_group_commit_run_passes():
    db = Database(
        EngineConfig(sanitizers=True, group_commit="size", group_commit_size=4)
    )
    assert db.sanitizers.group_commit is True
    _, result = _run_bank(db, seed=11)
    assert result.committed > 0
    db.flush_group_commit()
    assert db.sanitizers.check(assume_quiescent=True) == []


def test_crash_recovery_run_passes():
    from repro.common import SimulatedCrash

    db = Database(
        EngineConfig(sanitizers=True, group_commit="size", group_commit_size=4)
    )
    bank = BankingWorkload(
        db, n_branches=2, accounts_per_branch=6, seed=5
    ).setup()
    injector = FaultInjector(seed=5)
    db.install_fault_injector(injector)
    injector.arm("txn.commit.before", probability=0.1)
    injector.arm("wal.group_flush", probability=0.2)
    crashes = 0
    for attempt in range(4):
        sched = Scheduler(
            db, max_retries=8, cleanup_interval=100,
            custom_executor=bank.op_executor(),
        )
        for _ in range(3):
            sched.add_session(bank.transfer_program(think=1), txns=3)
        try:
            sched.run()
        except SimulatedCrash:
            crashes += 1
            db.simulate_crash_and_recover()
    injector.disarm()
    db.flush_group_commit()
    assert crashes > 0, "fault schedule never crashed; test proves nothing"
    assert db.sanitizers.check(assume_quiescent=True) == []
    assert db.check_all_views() == []


def test_leaf_write_backs_keep_the_wal_rule():
    """Order-4 trees under a 2-leaf dirty table: leaves are written back
    mid-transaction, each after the WAL is durable to its page LSN."""
    db = Database(EngineConfig(
        sanitizers=True, btree_order=4, buffer_pool_frames=2,
    ))
    _, result = _run_bank(db, seed=13)
    assert result.committed > 0
    evicted = [e for e in db.tracer.events() if e.name == "page_evicted"]
    assert evicted and db.stats()["storage"]["pool"]["forced_wal_flushes"] > 0
    assert db.sanitizers.check(assume_quiescent=True) == []


def test_post_hoc_trace_of_real_run_is_clean():
    db = Database(EngineConfig(sanitizers=False))
    db.tracer.enable()
    _run_bank(db, seed=3, sessions=2, txns=3)
    events = [e.as_dict() for e in db.tracer.events()]
    assert events, "tracer captured nothing"
    assert check_trace(events, assume_quiescent=True) == []


def test_violation_str_and_repr():
    v = Violation("wal", "boom", txn_id=7, seq=42)
    assert str(v) == "[wal] txn=7 seq=42: boom"
    assert "boom" in repr(v)
    assert str(Violation("2pl", "bare")) == "[2pl]: bare"


def test_checkers_are_individually_importable():
    suite = SanitizerSuite()
    assert isinstance(suite.twopl, TwoPhaseLockingSanitizer)
    assert isinstance(suite.walrule, WalRuleSanitizer)
    assert isinstance(suite.serializability, SerializabilitySanitizer)
    assert suite.check() == []
