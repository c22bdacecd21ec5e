"""Delta accumulation for aggregate views.

A :class:`NetDelta` folds a stream of per-row counter contributions into
the *net* change per group. Two uses:

* inside one statement — every row change's contributions, an UPDATE's
  delete side and insert side alike, fold into one delta per group, so a
  multi-row INSERT whose rows share a group takes one lock and logs one
  escrow record for it (``docs/ARCHITECTURE.md`` §2);
* across a whole transaction — in ``commit_fold`` maintenance mode, every
  statement's deltas accumulate in the transaction's scratch space and are
  applied in one burst at commit. The hot view row is then E-locked for a
  moment at commit instead of from first update to commit, which is
  experiment R10's lock-hold-time comparison. A savepoint keeps a copy
  of the set and rolling back to it restores the copy.
"""

from repro.common import StorageError


class NetDelta:
    """Net counter deltas per group key for one aggregate view, and
    ``positions``: where a statement located its groups."""

    __slots__ = ("view_name", "_groups", "positions")

    def __init__(self, view_name):
        self.view_name = view_name
        self._groups = {}
        self.positions = {}

    def __len__(self):
        return len(self._groups)

    def __repr__(self):
        return f"NetDelta({self.view_name!r}, {self._groups!r})"

    def add(self, group_key, deltas):
        """Fold ``deltas`` (column -> amount) into ``group_key``'s entry."""
        acc = self._groups.get(group_key)
        if acc is None:
            self._groups[group_key] = dict(deltas)
            return
        for column, amount in deltas.items():
            acc[column] = acc.get(column, 0) + amount

    def items(self):
        """Iterate (group_key, deltas) pairs with all-zero groups removed,
        in group-key order (deterministic lock acquisition order); keys
        no index could order together are a StorageError."""
        try:
            keys = sorted(self._groups)
        except TypeError:
            raise StorageError(
                f"view {self.view_name!r} cannot order group keys "
                f"{list(self._groups)!r} against each other"
            ) from None
        for key in keys:
            deltas = self._groups[key]
            if any(v != 0 for v in deltas.values()):
                yield key, deltas

    def discard(self, group_key):
        self._groups.pop(group_key, None)

    def is_empty(self):
        return all(
            all(v == 0 for v in deltas.values())
            for deltas in self._groups.values()
        )

    def merge(self, other):
        """Fold another NetDelta for the same view into this one."""
        for key, deltas in other._groups.items():
            self.add(key, deltas)


class TxnViewDeltas:
    """Per-transaction scratch: view name -> NetDelta (commit_fold mode)."""

    SCRATCH_KEY = "view_deltas"

    @classmethod
    def of(cls, txn):
        """Fetch (or create) the delta set in ``txn.scratch``."""
        deltas = txn.scratch.get(cls.SCRATCH_KEY)
        if deltas is None:
            deltas = {}
            txn.scratch[cls.SCRATCH_KEY] = deltas
        return deltas

    @classmethod
    def for_view(cls, txn, view_name):
        deltas = cls.of(txn)
        net = deltas.get(view_name)
        if net is None:
            net = NetDelta(view_name)
            deltas[view_name] = net
        return net

    @classmethod
    def clear(cls, txn):
        txn.scratch.pop(cls.SCRATCH_KEY, None)

    @classmethod
    def copy(cls, txn):
        """A copy of ``txn``'s delta set — what a savepoint keeps."""
        return _copied(txn.scratch.get(cls.SCRATCH_KEY) or {})

    @classmethod
    def restore(cls, txn, copied):
        """Make ``txn``'s delta set what :meth:`copy` returned again —
        rolling back to a savepoint forgets the deltas folded since."""
        txn.scratch[cls.SCRATCH_KEY] = _copied(copied)


def _copied(nets):
    copies = {}
    for view_name, net in nets.items():
        copies[view_name] = NetDelta(view_name)
        copies[view_name].merge(net)
    return copies
