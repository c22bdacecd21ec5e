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

from collections import namedtuple

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
#: a gap-only share lock on a fence: "not there" / "nothing beyond" stays true
FENCE_S = RangeMode(RangeMode.RANGE_S_S.gap, LockMode.NL)


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


# The per-key plans — point read, insert, update, ghost, escrow — share
# one signature, ``(index, key, at=None, serializable=True)``: ``at``, the
# key's :class:`~repro.storage.index.Position`, says whether the key is
# there and what fences its gap without a descent (``None``: look it up).


def locks_for_point_read(index, key, at=None, serializable=True,
                         mode=LockMode.S):
    """Read the row at ``key``: a key lock in ``mode``.

    If the key does not exist, a serializable reader must instead lock the
    gap that would contain it, so the answer "not there" stays true: we
    take a range-S lock on the fence key.
    """
    if at is None:
        record = index.get_record(key, include_ghost=True)
    else:
        record = at.record
    if record is not None:
        return [(key_resource(index.name, key), RangeMode.key(mode))]
    return [(_fence_resource(index, key, at), FENCE_S)]


def locks_for_range_scan(index, key_range=None, mode=LockMode.S, serializable=True,
                         items=None):
    """Scan ``key_range``: lock every key in range; when ``serializable``,
    use range locks and fence the gap above the range end. ``items`` are
    the range's ``(key, record)`` pairs, ghosts included, when the caller
    has walked it already (``None``: walk it here)."""
    if key_range is None:
        key_range = KeyRange.all()
    if items is None:
        items = index.scan(key_range, include_ghosts=True)
    lock_mode = RangeMode(RangeMode.RANGE_S_S.gap, mode) if serializable else RangeMode.key(mode)
    name = index.name
    plan = [(("key", name, key), lock_mode) for key, _record in items]
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
            plan.append((eof_resource(index.name), FENCE_S))
        else:
            plan.append((key_resource(index.name, fence), FENCE_S))
    return plan


def locks_for_insert(index, key, at=None, serializable=True):
    """Insert ``key``: an insert-intent lock on the gap's fence key, then
    X on the (new or revived) key itself."""
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


def locks_for_update(index, key, at=None, serializable=True):
    """Update the row at ``key`` in place (key unchanged): X on the key."""
    return [(key_resource(index.name, key), KEY_X)]


def locks_for_logical_delete(index, key, at=None, serializable=True):
    """Ghost the row at ``key``: X on the key. The key survives as a
    fence post, so no gap lock is needed."""
    return [(key_resource(index.name, key), KEY_X)]


def locks_for_escrow_update(index, key, at=None, serializable=True):
    """Increment/decrement counters in the row at ``key``: an E key lock —
    compatible with other transactions' E locks on the same key. It
    needs no descent: the caller's position said the row is there."""
    return [(key_resource(index.name, key), KEY_E)]


#: The plan of each verb a maintainer's action (or the base row's) may
#: perform on one key. The runtime calls ``PLANS[verb]`` on concrete
#: keys; the static analyzer reads the same functions on symbols
#: (:func:`symbolic_plan`) for the verbs a :class:`LockEntry` lists.
PLANS = {
    "read": locks_for_point_read,
    "insert": locks_for_insert,
    "create": locks_for_insert,
    "update": locks_for_update,
    "patch": locks_for_update,
    "revive": locks_for_update,
    "xlock": locks_for_update,
    "apply": locks_for_update,
    "delete": locks_for_logical_delete,
    "ghost": locks_for_logical_delete,
    "escrow": locks_for_escrow_update,
}

#: When a statement takes an entry's locks, in order: ``locate`` as an
#: UPDATE or DELETE finds its row, ``read`` while the views compile (a
#: join reads the other side), ``write`` with the statement's actions.
PHASES = ("locate", "read", "write")

#: One lock a write plan takes per row change: in ``phase``, on
#: ``index``, at the key the symbol ``key`` names (``<pk(t)>``,
#: ``<group>``, ``<fk>``, ...), by one of ``verbs`` — the runtime picks
#: one by the key's state (create, revive, escrow, ...), the analyzer
#: lists them all: the worst case.
LockEntry = namedtuple("LockEntry", "phase index key verbs")


class _Symbol:
    """A key the analyzer names but cannot see, standing in for its index
    (``name``) and its position: ``record`` says whether the key is
    there, and its gap's fence is the symbol itself."""

    __slots__ = ("name", "record", "fence")

    def __init__(self, name, key, present):
        self.name = name
        self.record = True if present else None
        self.fence = key


def symbolic_plan(plan, index_name, key, serializable=True):
    """``plan`` read against the symbol ``key`` of ``index_name``:
    ``(resource, mode, only_if_absent)`` for the locks it takes when the
    key is there, then for those it takes when it is not (a gap's fence
    is anchored on the symbol) — the worst case, in order."""
    def run(present):
        where = _Symbol(index_name, key, present)
        return plan(where, key, where, serializable)

    present, absent = run(True), run(False)
    return [(r, m, False) for r, m in present if (r, m) not in absent] + [
        (r, m, (r, m) not in present) for r, m in absent
    ]


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
