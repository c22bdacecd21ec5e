"""Tests for escrow accounts: the O'Neil escrow test, commit/abort folding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import EscrowViolationError
from repro.locking import EscrowAccount, EscrowRegistry


class TestEscrowBasics:
    def test_initial_state(self):
        a = EscrowAccount(initial=10)
        assert a.read_committed() == 10
        assert not a.has_pending()

    def test_reserve_and_commit(self):
        a = EscrowAccount(initial=10)
        a.reserve(1, +5)
        assert a.read_committed() == 10  # not yet committed
        assert a.read_exact(1) == 15
        assert a.commit(1) == 15
        assert a.read_committed() == 15

    def test_reserve_and_abort(self):
        a = EscrowAccount(initial=10)
        a.reserve(1, +5)
        assert a.abort(1) == 5
        assert a.read_committed() == 10
        assert not a.has_pending()

    def test_multiple_reserves_accumulate(self):
        a = EscrowAccount()
        a.reserve(1, +3)
        a.reserve(1, +4)
        assert a.pending_of(1) == 7
        a.commit(1)
        assert a.read_committed() == 7

    def test_concurrent_transactions_commute(self):
        a = EscrowAccount(initial=100)
        a.reserve(1, +10)
        a.reserve(2, -20)
        a.reserve(3, +5)
        a.commit(2)
        a.abort(1)
        a.commit(3)
        assert a.read_committed() == 85

    def test_commit_without_reserve_is_noop(self):
        a = EscrowAccount(initial=5)
        assert a.commit(9) == 5

    def test_others_pending(self):
        a = EscrowAccount()
        a.reserve(1, 1)
        assert a.others_pending(2)
        assert not a.others_pending(1)


class TestEscrowTest:
    """The worst-case bound check that replaces read-validate cycles."""

    def test_low_bound_blocks_overdraft(self):
        a = EscrowAccount(initial=10, low_bound=0)
        a.reserve(1, -6)
        with pytest.raises(EscrowViolationError):
            a.reserve(2, -6)  # 10-6-6 = -2 under worst case
        a.reserve(2, -4)  # exactly 0 is allowed

    def test_low_bound_ignores_other_increments(self):
        """Pending increments may abort, so they cannot fund a decrement."""
        a = EscrowAccount(initial=0, low_bound=0)
        a.reserve(1, +10)
        with pytest.raises(EscrowViolationError):
            a.reserve(2, -5)

    def test_own_increment_funds_own_decrement(self):
        a = EscrowAccount(initial=0, low_bound=0)
        a.reserve(1, +10)
        a.reserve(1, -5)  # txn 1's own net is +5: fine
        assert a.pending_of(1) == 5

    def test_high_bound(self):
        a = EscrowAccount(initial=0, high_bound=10)
        a.reserve(1, +7)
        with pytest.raises(EscrowViolationError):
            a.reserve(2, +7)
        a.reserve(2, +3)

    def test_unbounded_account_never_rejects(self):
        a = EscrowAccount()
        for txn in range(10):
            a.reserve(txn, -1000)
        assert a.worst_case_low() == -10000

    def test_worst_case_bounds(self):
        a = EscrowAccount(initial=50)
        a.reserve(1, +10)
        a.reserve(2, -20)
        assert a.worst_case_low() == 30
        assert a.worst_case_high() == 60
        assert a.infimum() == 30
        assert a.supremum() == 60

    def test_failed_reserve_leaves_no_trace(self):
        a = EscrowAccount(initial=1, low_bound=0)
        with pytest.raises(EscrowViolationError):
            a.reserve(1, -2)
        assert a.pending_of(1) == 0
        a.reserve(1, -1)  # still possible


class TestEscrowRegistry:
    def test_lazy_account_creation(self):
        reg = EscrowRegistry()
        acct = reg.account(("v", (1,), "cnt"), initial=3, low_bound=0)
        assert acct.read_committed() == 3
        assert reg.account(("v", (1,), "cnt")) is acct
        assert reg.existing(("missing",)) is None

    def test_drop(self):
        reg = EscrowRegistry()
        reg.account("a")
        reg.drop("a")
        assert reg.existing("a") is None
        reg.drop("a")  # idempotent


@st.composite
def escrow_histories(draw):
    """A sequence of (txn, delta, outcome) steps against a bounded account."""
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=-5, max_value=5),
            ),
            max_size=40,
        )
    )
    return steps


class TestEscrowProperties:
    @settings(max_examples=100, deadline=None)
    @given(escrow_histories(), st.integers(min_value=0, max_value=20))
    def test_committed_never_below_bound(self, steps, initial):
        """Whatever interleaving of reserve/commit/abort happens, the
        committed value never violates the low bound — the core safety
        property of escrow locking."""
        a = EscrowAccount(initial=initial, low_bound=0)
        live = set()
        for i, (txn, delta) in enumerate(steps):
            try:
                a.reserve(txn, delta)
                live.add(txn)
            except EscrowViolationError:
                pass
            if i % 3 == 2 and live:
                victim = sorted(live)[0]
                if i % 2:
                    a.commit(victim)
                else:
                    a.abort(victim)
                live.discard(victim)
            assert a.read_committed() >= 0
        for txn in sorted(live):
            a.commit(txn)
            assert a.read_committed() >= 0

    @settings(max_examples=100, deadline=None)
    @given(escrow_histories())
    def test_commit_order_irrelevant(self, steps):
        """Increments commute: committing in any order yields the same
        final value (determined only by which transactions commit)."""
        a1 = EscrowAccount()
        a2 = EscrowAccount()
        for txn, delta in steps:
            a1.reserve(txn, delta)
            a2.reserve(txn, delta)
        txns = sorted({t for t, _ in steps})
        for t in txns:
            a1.commit(t)
        for t in reversed(txns):
            a2.commit(t)
        assert a1.read_committed() == a2.read_committed()
