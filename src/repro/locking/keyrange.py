"""Key-range lock planning.

Key-range locking (as in ARIES/KVL and SQL Server) attaches each lock to an
*existing* index key; the lock's gap component protects the open interval
between that key and its predecessor. This module computes, for each
logical operation on an index, the set of ``(resource, mode)`` pairs that
must be held — the *lock plan*. The transaction layer acquires them in
order; operations re-plan after any wait, because the fence keys an
operation anchors to may have changed while it slept.

Resource naming conventions:

* ``("key", index_name, key)`` — an index key (live or ghost: a ghost is
  still a fence post and still lockable);
* ``("eof", index_name)`` — the virtual key above every real key, fencing
  the unbounded upper gap;
* ``("table", name)`` — the whole table/view, for intention locks.

Ghost-based deletion keeps this simple: logically deleting a key never
removes it from the tree, so delete needs only an X key lock, not the
RangeX-X gymnastics of systems that delete keys inline. Only the ghost
cleaner (a system transaction) removes keys, and it locks them X first.
"""

from repro.common.keys import POS_INF, KeyRange
from repro.locking.modes import LockMode, RangeMode


def table_resource(name):
    return ("table", name)


def key_resource(index_name, key):
    return ("key", index_name, key)


def eof_resource(index_name):
    return ("eof", index_name)


#: the write plans' key modes, one object each
KEY_X = RangeMode.key(LockMode.X)
KEY_E = RangeMode.key(LockMode.E)


def _fence_resource(index, key, at=None):
    """The resource anchoring the gap that ``key`` falls in: the next
    existing key at or above ``key`` (``at.fence`` when the caller has
    located ``key``), or the index EOF."""
    if at is None:
        fence = index.next_key(key, inclusive=True, include_ghosts=True)
    else:
        fence = at.fence
    if fence is None:
        return eof_resource(index.name)
    return key_resource(index.name, fence)


def locks_for_point_read(index, key, mode=LockMode.S, record=...):
    """Read the row at ``key``: a key lock in ``mode``.

    If the key does not exist, a serializable reader must instead lock the
    gap that would contain it, so the answer "not there" stays true: we
    take a range-S lock on the fence key. A caller that already holds the
    record at ``key`` (ghosts included, ``None`` if absent) passes it as
    ``record`` and saves the descent.
    """
    if record is ...:
        record = index.get_record(key, include_ghost=True)
    if record is not None:
        return [(key_resource(index.name, key), RangeMode.key(mode))]
    return [(_fence_resource(index, key), RangeMode(RangeMode.RANGE_S_S.gap, LockMode.NL))]


def locks_for_range_scan(index, key_range=None, mode=LockMode.S, serializable=True):
    """Scan ``key_range``: lock every key in range; when ``serializable``,
    use range locks and fence the gap above the range end."""
    if key_range is None:
        key_range = KeyRange.all()
    plan = []
    lock_mode = RangeMode(RangeMode.RANGE_S_S.gap, mode) if serializable else RangeMode.key(mode)
    first = True
    for key, _record in index.scan(key_range, include_ghosts=True):
        if first and serializable and not key_range.low.inclusive:
            # The gap below the first in-range key extends below the range;
            # locking it is conservative but correct.
            pass
        plan.append((key_resource(index.name, key), lock_mode))
        first = False
    if serializable:
        # Fence the gap above the last in-range key: the next key beyond
        # the range (or EOF) gets a gap-only lock so inserts into the tail
        # gap conflict.
        high = key_range.high
        if high.key is POS_INF:
            fence = None
        else:
            fence = index.next_key(high.key, inclusive=not high.inclusive)
        if fence is None:
            plan.append(
                (eof_resource(index.name), RangeMode(RangeMode.RANGE_S_S.gap, LockMode.NL))
            )
        else:
            plan.append(
                (
                    key_resource(index.name, fence),
                    RangeMode(RangeMode.RANGE_S_S.gap, LockMode.NL),
                )
            )
    return plan


def locks_for_insert(index, key, serializable=True, at=None):
    """Insert ``key``: an insert-intent lock on the gap's fence key, then
    X on the (new or revived) key itself. ``at``, the key's
    :class:`~repro.storage.index.Position`, says whether the key is there
    and what fences its gap without a descent."""
    plan = []
    if serializable:
        if at is None:
            existing = index.get_record(key, include_ghost=True)
        else:
            existing = at.record
        if existing is None:
            plan.append((_fence_resource(index, key, at), RangeMode.RANGE_I_N))
    plan.append((key_resource(index.name, key), KEY_X))
    return plan


def locks_for_update(index, key):
    """Update the row at ``key`` in place (key unchanged): X on the key."""
    return [(key_resource(index.name, key), KEY_X)]


def locks_for_logical_delete(index, key):
    """Ghost the row at ``key``: X on the key. The key survives as a
    fence post, so no gap lock is needed."""
    return [(key_resource(index.name, key), KEY_X)]


def locks_for_escrow_update(index, key):
    """Increment/decrement counters in the row at ``key``: an E key lock —
    compatible with other transactions' E locks on the same key. It
    needs no descent: the caller's position said the row is there."""
    return [(key_resource(index.name, key), KEY_E)]


def locks_for_ghost_cleanup(index, key):
    """Physically remove a ghost: X on the key *and* on the gap fence
    above it, since removing the key merges two gaps — anyone holding a
    gap lock anchored on this key must be excluded first."""
    plan = [(key_resource(index.name, key), RangeMode.RANGE_X_X)]
    fence = index.next_key(key, inclusive=False, include_ghosts=True)
    if fence is None:
        plan.append((eof_resource(index.name), RangeMode(RangeMode.RANGE_X_X.gap, LockMode.NL)))
    else:
        plan.append(
            (
                key_resource(index.name, fence),
                RangeMode(RangeMode.RANGE_X_X.gap, LockMode.NL),
            )
        )
    return plan


def gap_only(mode_pair):
    """True if a plan entry locks only a gap (key component NL)."""
    return mode_pair.key_mode is LockMode.NL
