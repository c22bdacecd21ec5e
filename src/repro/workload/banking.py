"""A TPC-B-flavoured banking workload.

Schema::

    accounts(aid, branch, balance)
    branch_totals = SELECT branch, COUNT(*), SUM(balance)
                    FROM accounts GROUP BY branch     -- indexed view

Transfers move money between accounts (often across branches), deposits
and withdrawals adjust one account — every one of them hits the
``branch_totals`` view, and with few branches those view rows are white
hot. This is the original escrow-locking use case (O'Neil 1986) recast as
indexed-view maintenance.

The workload's gift to testing is an **invariant**: transfers conserve
money, so the sum of ``branch_totals.total`` over all branches must equal
the initially deposited amount plus net deposits at every quiescent
point, under any interleaving, abort pattern, or crash.
"""

from repro.common import DeterministicRng, StorageError

ACCOUNTS = "accounts"
BRANCH_TOTALS = "branch_totals"


class BankingWorkload:
    """Builds the bank and hands out transaction programs."""

    def __init__(self, db, n_branches=4, accounts_per_branch=25,
                 initial_balance=100, seed=17):
        self.db = db
        self.n_branches = n_branches
        self.accounts_per_branch = accounts_per_branch
        self.initial_balance = initial_balance
        self.rng = DeterministicRng(seed)
        self.net_deposits = 0

    # ------------------------------------------------------------------

    def setup(self):
        db = self.db
        db.create_table(ACCOUNTS, ("aid", "branch", "balance"), ("aid",))
        db.create_view(
            f"CREATE UNIQUE INDEXED VIEW {BRANCH_TOTALS} AS "
            f"SELECT branch, COUNT(*) AS n_accounts, SUM(balance) AS total "
            f"FROM {ACCOUNTS} GROUP BY branch"
        )
        txn = db.begin_system()
        aid = 1
        for branch in range(self.n_branches):
            for _ in range(self.accounts_per_branch):
                db.insert(
                    txn,
                    ACCOUNTS,
                    {
                        "aid": aid,
                        "branch": branch,
                        "balance": self.initial_balance,
                    },
                )
                aid += 1
        db.commit(txn)
        # Reference data must survive anything the workload throws at the
        # engine later: force it out of any open commit group now, before
        # a caller arms fault sites (a retracted/lost setup transaction
        # has no retry loop — the money would just vanish).
        db.group_commit.flush_pending()
        return self

    def total_money_expected(self):
        return (
            self.n_branches * self.accounts_per_branch * self.initial_balance
            + self.net_deposits
        )

    def total_money_in_view(self):
        """Sum of branch totals as the view reports them (committed)."""
        total = 0
        for branch in range(self.n_branches):
            row = self.db.read_committed(BRANCH_TOTALS, (branch,))
            if row is not None:
                total += row["total"]
        return total

    def check_conservation(self):
        """Raises AssertionError if money appeared or vanished."""
        view_total = self.total_money_in_view()
        expected = self.total_money_expected()
        assert view_total == expected, (
            f"money not conserved: view says {view_total}, expected {expected}"
        )

    # ------------------------------------------------------------------

    def _random_aid(self):
        return self.rng.randint(
            1, self.n_branches * self.accounts_per_branch
        )

    def transfer_program(self, amount_range=(1, 20), think=0):
        """Move money between two random accounts (base X locks on both
        rows, escrow deltas on one or two branch totals)."""

        def program():
            src = self._random_aid()
            dst = self._random_aid()
            while dst == src:
                dst = self._random_aid()
            amount = self.rng.randint(*amount_range)
            # read-modify-write both balances under U->X locks
            src_key, dst_key = (src,), (dst,)
            yield ("update_balance", src_key, -amount)
            if think:
                yield ("think", think)
            yield ("update_balance", dst_key, +amount)

        return program

    def deposit_program(self, amount_range=(1, 50)):
        """Deposits change the total money supply, so runs that include
        them should verify correctness with
        ``db.check_all_views()`` (view == base truth) rather than
        :meth:`check_conservation`, which assumes a transfer-only mix —
        a deposit transaction that aborts and retries would make external
        bookkeeping of the expected total unreliable."""

        def program():
            aid = self._random_aid()
            amount = self.rng.randint(*amount_range)
            yield ("update_balance", (aid,), amount)

        return program

    def audit_program(self, isolation_hint="snapshot"):
        """Scan all branch totals (the auditor)."""

        def program():
            yield ("scan", BRANCH_TOTALS)

        return program

    # ------------------------------------------------------------------
    # the custom op used by the programs above
    # ------------------------------------------------------------------

    def execute_update_balance(self, txn, key, delta):
        """Adjust one account's balance by ``delta`` (may go negative —
        overdraft rules are not this workload's concern)."""
        row = self.db.read(txn, ACCOUNTS, key, for_update=True)
        if row is None:
            raise StorageError(f"no account {key!r}")
        self.db.update(txn, ACCOUNTS, key, {"balance": row["balance"] + delta})

    def op_executor(self):
        """An executor extension for the Scheduler: handles the
        ``update_balance`` op this workload emits."""

        def execute(txn, op):
            if op[0] == "update_balance":
                self.execute_update_balance(txn, op[1], op[2])
                return True
            return False

        return execute
