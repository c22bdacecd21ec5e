"""Banking workload: money conservation under concurrency and crashes."""

import pytest

from repro.common import StorageError
from repro.core import Database, EngineConfig
from repro.sim import Scheduler
from repro.workload import ACCOUNTS, BRANCH_TOTALS, BankingWorkload


def make_bank(strategy="escrow", engine=None, **wl_kwargs):
    db = Database(EngineConfig(aggregate_strategy=strategy, **(engine or {})))
    bank = BankingWorkload(db, **wl_kwargs).setup()
    return db, bank


class TestSetup:
    def test_accounts_and_view(self):
        db, bank = make_bank(n_branches=3, accounts_per_branch=5)
        assert len(db.index(ACCOUNTS)) == 15
        row = db.read_committed(BRANCH_TOTALS, (0,))
        assert row["n_accounts"] == 5
        assert row["total"] == 500
        bank.check_conservation()

    def test_expected_total(self):
        _db, bank = make_bank(n_branches=2, accounts_per_branch=10,
                              initial_balance=7)
        assert bank.total_money_expected() == 140
        assert bank.total_money_in_view() == 140


class TestSerialTransfers:
    def test_single_transfer_conserves(self):
        db, bank = make_bank()
        txn = db.begin()
        bank.execute_update_balance(txn, (1,), -30)
        bank.execute_update_balance(txn, (99,), +30)
        db.commit(txn)
        bank.check_conservation()
        assert db.check_all_views() == []

    def test_aborted_transfer_conserves(self):
        db, bank = make_bank()
        txn = db.begin()
        bank.execute_update_balance(txn, (1,), -30)
        db.abort(txn)
        bank.check_conservation()
        assert db.read_committed(ACCOUNTS, (1,))["balance"] == 100

    def test_missing_account_raises(self):
        db, bank = make_bank()
        txn = db.begin()
        with pytest.raises(StorageError):
            bank.execute_update_balance(txn, (9999,), 1)
        db.abort(txn)


class TestConcurrentTransfers:
    # The last case has three accounts a branch, so transfers deadlock and
    # victims abort; under physical counter logging rollback unreserves
    # nothing, and only the abort's discard takes a victim's pending
    # deltas off the branch rows (the view check reads them).
    @pytest.mark.parametrize(
        "strategy, engine, accounts",
        [
            ("escrow", {}, 10),
            ("xlock", {}, 10),
            ("escrow", {"counter_logging": "physical"}, 3),
        ],
        ids=["escrow", "xlock", "escrow-physical"],
    )
    def test_conservation_under_concurrency(self, strategy, engine, accounts):
        db, bank = make_bank(
            strategy, engine, n_branches=3, accounts_per_branch=accounts
        )
        scheduler = Scheduler(db, custom_executor=bank.op_executor())
        for _ in range(8):
            scheduler.add_session(bank.transfer_program(think=2), txns=15)
        result = scheduler.run()
        assert result.committed == 120
        bank.check_conservation()
        assert db.check_all_views() == []

    def test_escrow_outperforms_xlock_on_few_branches(self):
        """Two branches means two white-hot view rows: the escrow-vs-X
        contrast in its purest form."""
        results = {}
        for strategy in ("escrow", "xlock"):
            db, bank = make_bank(
                strategy, n_branches=2, accounts_per_branch=50
            )
            scheduler = Scheduler(db, custom_executor=bank.op_executor())
            for _ in range(10):
                scheduler.add_session(bank.transfer_program(), txns=10)
            results[strategy] = scheduler.run()
            bank.check_conservation()
        assert (
            results["escrow"].lock_stats["waits"]
            < results["xlock"].lock_stats["waits"]
        )
        assert results["escrow"].throughput() > results["xlock"].throughput()

    def test_auditors_with_transfers(self):
        db, bank = make_bank(n_branches=4, accounts_per_branch=10)
        scheduler = Scheduler(db, custom_executor=bank.op_executor())
        for _ in range(6):
            scheduler.add_session(bank.transfer_program(), txns=10)
        scheduler.add_session(bank.audit_program(), txns=10, isolation="snapshot")
        result = scheduler.run()
        assert result.committed == 70
        bank.check_conservation()

    def test_deposits_keep_views_consistent(self):
        db, bank = make_bank()
        scheduler = Scheduler(db, custom_executor=bank.op_executor())
        for _ in range(4):
            scheduler.add_session(bank.deposit_program(), txns=10)
        scheduler.run()
        assert db.check_all_views() == []


class TestCrashRecoveryConservation:
    def test_crash_mid_transfer_conserves(self):
        db, bank = make_bank()
        t1 = db.begin()
        bank.execute_update_balance(t1, (1,), -30)  # only one leg done
        db.log.flush()
        db.simulate_crash_and_recover()
        bank.check_conservation()
        assert db.read_committed(ACCOUNTS, (1,))["balance"] == 100
        assert db.check_all_views() == []

    def test_committed_transfers_survive_crash(self):
        db, bank = make_bank()
        txn = db.begin()
        bank.execute_update_balance(txn, (1,), -25)
        bank.execute_update_balance(txn, (2,), +25)
        db.commit(txn)
        db.simulate_crash_and_recover()
        bank.check_conservation()
        assert db.read_committed(ACCOUNTS, (1,))["balance"] == 75
        assert db.read_committed(ACCOUNTS, (2,))["balance"] == 125
