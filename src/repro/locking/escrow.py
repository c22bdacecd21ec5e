"""Escrow accounting for commutative counter updates.

The E lock mode (see :mod:`repro.locking.modes`) says *who may* increment a
counter concurrently; this module tracks *what they did*. An
:class:`EscrowAccount` keeps, for one counter (one aggregate column of one
view row):

* the **committed value** — the result of all committed transactions;
* a **pending delta per in-flight transaction**;
* optional **bounds** — e.g. ``COUNT(*) >= 0``, or a business rule like
  "quantity on hand may not go negative".

The classic escrow test (O'Neil 1986) admits an update only if the counter
stays within bounds under *every* possible outcome of the in-flight
transactions: the worst-case low assumes every pending decrement commits
and every pending increment aborts, and vice versa for the high side. This
is what allows increments to run concurrently without ever needing
cascading aborts.

Commit folds the transaction's delta into the committed value; abort simply
discards it — logical undo of a commutative operation.
"""

from repro.common import EscrowViolationError


class EscrowAccount:
    """One escrow-managed counter."""

    __slots__ = ("committed", "low_bound", "high_bound", "_pending", "record")

    def __init__(self, initial=0, low_bound=None, high_bound=None):
        self.committed = initial
        self.low_bound = low_bound
        self.high_bound = high_bound
        self._pending = {}  # txn_id -> accumulated delta
        #: the row record the last reserve was made against — where a
        #: commit folds the counter, found without a lookup
        self.record = None

    def __repr__(self):
        return (
            f"EscrowAccount(committed={self.committed}, "
            f"pending={dict(self._pending)!r})"
        )

    # -- the escrow test ------------------------------------------------

    def worst_case_low(self):
        """Smallest value the counter could end up at if adversarially
        chosen in-flight transactions commit/abort."""
        return self.committed + sum(d for d in self._pending.values() if d < 0)

    def worst_case_high(self):
        """Largest possible eventual value (mirror of worst_case_low)."""
        return self.committed + sum(d for d in self._pending.values() if d > 0)

    def infimum(self):
        """Alias used by the paper-style description."""
        return self.worst_case_low()

    def supremum(self):
        return self.worst_case_high()

    def reserve(self, txn_id, delta):
        """Apply ``delta`` on behalf of ``txn_id`` if the escrow test
        passes; raise :class:`EscrowViolationError` otherwise.

        The test is evaluated with the new delta folded into the pending
        set: the result must stay within bounds no matter which in-flight
        transactions commit. Direction matters: the low bound gates
        **decrements** and the high bound gates **increments** — a
        counter already outside its bounds (e.g. a freshly created group
        at 0 with a positive reserve requirement) may always move back
        toward compliance.
        """
        new_pending = self._pending.get(txn_id, 0) + delta
        low = self.committed + sum(
            d for t, d in self._pending.items() if t != txn_id and d < 0
        )
        high = self.committed + sum(
            d for t, d in self._pending.items() if t != txn_id and d > 0
        )
        if new_pending < 0:
            low += new_pending
        else:
            high += new_pending
        if delta < 0 and self.low_bound is not None and low < self.low_bound:
            raise EscrowViolationError(
                txn_id,
                detail=(
                    f"delta {delta} could drive value to {low}, below "
                    f"bound {self.low_bound}"
                ),
            )
        if delta > 0 and self.high_bound is not None and high > self.high_bound:
            raise EscrowViolationError(
                txn_id,
                detail=(
                    f"delta {delta} could drive value to {high}, above "
                    f"bound {self.high_bound}"
                ),
            )
        self._pending[txn_id] = new_pending
        return new_pending

    # -- reads ------------------------------------------------------------

    def read_committed(self):
        """The last committed value (what a snapshot reader sees)."""
        return self.committed

    def read_exact(self, txn_id):
        """The value as seen by ``txn_id`` alone: committed plus its own
        pending delta. Only meaningful when the caller has excluded other
        escrow holders (holds X, or verified ``others_pending`` is empty).
        """
        return self.committed + self._pending.get(txn_id, 0)

    def pending_of(self, txn_id):
        return self._pending.get(txn_id, 0)

    def read_inclusive(self):
        """Committed value plus *all* pending deltas — the value the
        counter will have if every in-flight transaction commits. The
        view checker compares this against the base tables' current
        rows, which carry the same uncommitted changes."""
        return self.committed + sum(self._pending.values())

    def others_pending(self, txn_id):
        """True if any *other* transaction has a pending delta."""
        return any(t != txn_id and d != 0 for t, d in self._pending.items())

    def has_pending(self):
        return any(d != 0 for d in self._pending.values())

    # -- resolution -------------------------------------------------------

    def commit(self, txn_id):
        """Fold ``txn_id``'s delta into the committed value; returns the
        new committed value."""
        delta = self._pending.pop(txn_id, 0)
        self.committed += delta
        return self.committed

    def abort(self, txn_id):
        """Discard ``txn_id``'s pending delta (logical undo)."""
        return self._pending.pop(txn_id, 0)

    def unreserve(self, txn_id, delta):
        """Reverse a previously reserved ``delta`` (partial rollback to a
        savepoint). No escrow test is needed: removing a pending delta can
        only relax the worst-case bounds, never violate them."""
        remaining = self._pending.get(txn_id, 0) - delta
        if remaining == 0:
            self._pending.pop(txn_id, None)
        else:
            self._pending[txn_id] = remaining
        return remaining


class EscrowRegistry:
    """All escrow accounts of the engine, addressed by resource name.

    The natural resource name is ``(index_name, key, column)`` — one
    account per aggregate column per view row. Accounts are created lazily
    with the initial committed value supplied by the caller.
    """

    def __init__(self):
        self._accounts = {}

    def account(self, resource, initial=0, low_bound=None, high_bound=None):
        """Get or lazily create the account for ``resource``."""
        acct = self._accounts.get(resource)
        if acct is None:
            acct = EscrowAccount(
                initial=initial, low_bound=low_bound, high_bound=high_bound
            )
            self._accounts[resource] = acct
        return acct

    def existing(self, resource):
        return self._accounts.get(resource)

    def drop(self, resource):
        """Remove an account (ghost cleanup erased its row)."""
        self._accounts.pop(resource, None)
