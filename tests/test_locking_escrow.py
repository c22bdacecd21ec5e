"""Tests for escrow state on the record: the O'Neil escrow test,
commit/abort folding, and the lifetime of a record's escrow slot."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import EscrowViolationError, Row
from repro.locking import escrow
from repro.query import AggregateSpec
from repro.storage import Index, VersionedRecord
from repro.views import AggregateView


def counter(initial=0, low=None, high=None):
    """``(view, record)``: one group row whose SUM column ``v`` starts at
    ``initial`` and is bounded by ``low`` / ``high``."""
    view = AggregateView(
        "v", "t", group_by=("g",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("v", "x")],
        bounds={"v": (low, high)},
    )
    return view, VersionedRecord(("a",), Row({"g": "a", "n": 1, "v": initial}))


def reserve(c, txn, delta):
    view, record = c
    escrow.reserve(record, view, txn, {"v": delta})


def committed(c):
    return c[1].current_row["v"]


def exact(c, txn):
    return escrow.exact_row(c[1], txn)["v"]


class TestEscrowBasics:
    def test_initial_state(self):
        c = counter(initial=10)
        assert committed(c) == 10
        assert c[1].escrow is None

    def test_reserve_and_commit(self):
        c = counter(initial=10)
        reserve(c, 1, +5)
        assert committed(c) == 10  # not yet committed
        assert exact(c, 1) == 15
        assert escrow.commit(c[1], 1) is c[0]
        assert committed(c) == 15

    def test_reserve_and_abort(self):
        c = counter(initial=10)
        reserve(c, 1, +5)
        escrow.abort(c[1], 1)
        assert committed(c) == 10
        assert c[1].escrow is None

    def test_multiple_reserves_accumulate(self):
        c = counter()
        reserve(c, 1, +3)
        reserve(c, 1, +4)
        assert exact(c, 1) == 7
        escrow.commit(c[1], 1)
        assert committed(c) == 7

    def test_concurrent_transactions_commute(self):
        c = counter(initial=100)
        reserve(c, 1, +10)
        reserve(c, 2, -20)
        reserve(c, 3, +5)
        escrow.commit(c[1], 2)
        escrow.abort(c[1], 1)
        escrow.commit(c[1], 3)
        assert committed(c) == 85

    def test_commit_without_reserve_is_noop(self):
        c = counter(initial=5)
        assert escrow.commit(c[1], 9) is None
        assert committed(c) == 5

    def test_others_pending(self):
        """Another transaction's delta is in the inclusive row only."""
        c = counter()
        reserve(c, 1, 1)
        assert escrow.inclusive_row(c[1])["v"] == 1
        assert exact(c, 2) == 0
        assert exact(c, 1) == 1


class TestEscrowTest:
    """The worst-case bound check that replaces read-validate cycles."""

    def test_low_bound_blocks_overdraft(self):
        c = counter(initial=10, low=0)
        reserve(c, 1, -6)
        with pytest.raises(EscrowViolationError):
            reserve(c, 2, -6)  # 10-6-6 = -2 under worst case
        reserve(c, 2, -4)  # exactly 0 is allowed

    def test_low_bound_ignores_other_increments(self):
        """Pending increments may abort, so they cannot fund a decrement."""
        c = counter(initial=0, low=0)
        reserve(c, 1, +10)
        with pytest.raises(EscrowViolationError):
            reserve(c, 2, -5)

    def test_own_increment_funds_own_decrement(self):
        c = counter(initial=0, low=0)
        reserve(c, 1, +10)
        reserve(c, 1, -5)  # txn 1's own net is +5: fine
        assert exact(c, 1) == 5

    def test_high_bound(self):
        c = counter(initial=0, high=10)
        reserve(c, 1, +7)
        with pytest.raises(EscrowViolationError):
            reserve(c, 2, +7)
        reserve(c, 2, +3)

    def test_unbounded_account_never_rejects(self):
        c = counter()
        for txn in range(10):
            reserve(c, txn, -1000)
        assert escrow.inclusive_row(c[1])["v"] == -10000

    def test_worst_case_bounds(self):
        """With +10 and -20 pending on 50, the worst cases are 30 and 60:
        bounds there admit both, and nothing further either way."""
        c = counter(initial=50, low=30, high=60)
        reserve(c, 1, +10)
        reserve(c, 2, -20)
        with pytest.raises(EscrowViolationError):
            reserve(c, 3, -1)
        with pytest.raises(EscrowViolationError):
            reserve(c, 3, +1)
        assert escrow.inclusive_row(c[1])["v"] == 40

    def test_failed_reserve_leaves_no_trace(self):
        """All columns of a reserve or none: ``n`` passes, ``v`` fails."""
        view, record = c = counter(initial=1, low=0)
        with pytest.raises(EscrowViolationError):
            escrow.reserve(record, view, 1, {"n": +1, "v": -2})
        assert record.escrow is None
        reserve(c, 1, -1)  # still possible
        assert escrow.exact_row(record, 1) == Row({"g": "a", "n": 1, "v": 0})


class TestEscrowRegistry:
    """The lifetime of a record's escrow slot."""

    def test_lazy_account_creation(self):
        """The first reserve creates the slot; later ones share it."""
        view, record = c = counter(initial=3, low=0)
        assert record.escrow is None
        reserve(c, 1, +1)
        slot = record.escrow
        assert slot is not None and slot.view is view
        reserve(c, 2, +1)
        assert record.escrow is slot
        assert slot.pending == {1: [0, 1], 2: [0, 1]}  # by counter position

    def test_drop(self):
        """The slot is ``None`` once the last pending delta clears, and an
        erased ghost takes it with it."""
        view, record = c = counter()
        reserve(c, 1, +1)
        reserve(c, 2, +1)
        escrow.commit(record, 1)
        assert record.escrow is not None
        escrow.abort(record, 2)
        assert record.escrow is None
        escrow.abort(record, 2)  # idempotent

        index = Index("v", ("g",))
        ghost = index.set_entry(("a",), (record.current_row, True))
        escrow.reserve(ghost, view, 3, {"v": +1})
        index.set_entry(("a",), None)
        revived = index.set_entry(("a",), (record.current_row, False))
        assert revived is not ghost and revived.escrow is None


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
        c = counter(initial=initial, low=0)
        live = set()
        for i, (txn, delta) in enumerate(steps):
            try:
                reserve(c, txn, delta)
                live.add(txn)
            except EscrowViolationError:
                pass
            if i % 3 == 2 and live:
                victim = sorted(live)[0]
                if i % 2:
                    escrow.commit(c[1], victim)
                else:
                    escrow.abort(c[1], victim)
                live.discard(victim)
            assert committed(c) >= 0
        for txn in sorted(live):
            escrow.commit(c[1], txn)
            assert committed(c) >= 0

    @settings(max_examples=100, deadline=None)
    @given(escrow_histories())
    def test_commit_order_irrelevant(self, steps):
        """Increments commute: committing in any order yields the same
        final value (determined only by which transactions commit)."""
        c1, c2 = counter(), counter()
        for txn, delta in steps:
            reserve(c1, txn, delta)
            reserve(c2, txn, delta)
        txns = sorted({t for t, _ in steps})
        for t in txns:
            escrow.commit(c1[1], t)
        for t in reversed(txns):
            escrow.commit(c2[1], t)
        assert committed(c1) == committed(c2)
