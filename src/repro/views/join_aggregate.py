"""Maintenance for join-aggregate views.

The strategy is composition: turn a base-table change into a set of
*joined-row contributions* ``(joined_row, sign)`` and fold their counter
deltas into the statement's net per-group deltas; the write plan hands
each group's net delta to the plain aggregate maintainer
(:meth:`AggregateMaintainer.compile_group_delta`) once the statement's
last row change is compiled — so join-aggregate groups enjoy the same
escrow locking, ghosting, and commit folding as single-table aggregate
groups.

Contribution derivation per event:

* **left insert/delete** — look up the matched right row (S lock) and
  contribute ±1 joined row;
* **left update** — −old contribution, +new contribution (the fk may
  have changed: each side does its own right-row lookup);
* **right insert** — *backfill*: every pre-existing left row referencing
  the new right key contributes +1 (found through the auto-created
  ``<view>#leftfk`` index, shared with plain join views);
* **right delete** — every child's contribution is removed;
* **right update** — if any group-by / aggregate-source / predicate
  column changed, each child re-contributes (−old, +new).

Right-side fan-out means one parent update can touch many groups — the
NetDelta fold collapses those into one action per affected group.
"""

from repro.views.actions import Binding, same_locks
from repro.views.join import join_read, left_rows_referencing, leftfk_actions


class JoinAggregateMaintainer:
    """Compiles base-table changes into join-aggregate view actions; the
    groups' folded deltas are ``aggregate``'s to apply (an
    :class:`~repro.views.aggregate.AggregateMaintainer`)."""

    def __init__(self, aggregate):
        self.aggregate = aggregate

    def bind(self, view, table):
        """Row by row (contributions are read under S locks), folding."""
        return Binding(view, table, same_locks(
            join_read(view, table), self.aggregate.group_entry(view)
        ), self.compile, folds=True)

    def compile(self, db, txn, view, table, before, after, net):
        """The ``#leftfk`` actions of one row change; its contributions,
        the before image with −1 and the after image with +1 (either may
        be absent), fold into ``net``."""
        actions = leftfk_actions(db, view, table, before, after)
        if table == view.left:
            contribute = self._left_contributions
        elif before is not None and after is not None and (
            not self._right_change_matters(view, before, after)
        ):
            return actions
        else:
            contribute = self._right_contributions
        contributions = []
        for row, sign in ((before, -1), (after, +1)):
            if row is not None:
                contributions.extend(contribute(db, txn, view, row, sign))
        for joined_row, sign in contributions:
            deltas = view.deltas_for_joined(joined_row, sign)
            if deltas is not None:
                net.add(view.group_key_of_joined_row(joined_row), deltas)
        return actions

    # ------------------------------------------------------------------

    def _left_contributions(self, db, txn, view, left_row, sign):
        right_index = db.index(view.right)
        fk = view.left_fk_of(left_row)
        right_row = db.locked_row(txn, right_index, fk)
        if right_row is None:
            return []
        return [(left_row.merge(right_row), sign)]

    def _right_contributions(self, db, txn, view, right_row, sign):
        """All children's joined rows with ``right_row``, via #leftfk."""
        right_key = right_row.key(view.right_pk)
        return [
            (left_row.merge(right_row), sign)
            for left_row in left_rows_referencing(db, txn, view, right_key)
        ]

    def _right_change_matters(self, view, before, after):
        """Did the update touch any column the view derives from?"""
        interesting = set(view.group_by)
        for spec in view.aggregates:
            if spec.source is not None:
                interesting.add(spec.source)
        changed = {c for c in after if c in before and before[c] != after[c]}
        if changed & interesting:
            return True
        # a predicate can reference any column; re-evaluate conservatively
        return view.where is not None and bool(changed)
