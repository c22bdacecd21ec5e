"""Projection-view maintenance (SELECT cols FROM base WHERE p).

The simplest view shape: one view row per qualifying base row. A change
is the pair of entries the before and after images derive
(:meth:`~repro.views.definition.ProjectionView.entry`), and maintenance
follows from comparing them: the same entry needs nothing, the same key
with a new row is an in-place patch, anything else — a row entering or
leaving the predicate, or a key that moved — ghosts the old entry and
inserts the new one, with the corresponding key-range locking. Each key
is located once; its plan and its write read the position.

A projection keyed by the base primary key never moves its entry. A
:class:`~repro.views.definition.SecondaryIndex` does, and its insert is
where a unique constraint lives: a live entry already holding the new
key fails the statement in the compile phase, before anything mutated.
"""

from repro.common import CatalogError
from repro.locking.keyrange import (
    locks_for_insert,
    locks_for_logical_delete,
    locks_for_update,
)
from repro.txn.write import ghost, patch, put
from repro.views.actions import Action, Binding


class ProjectionMaintainer:
    """Compiles base-table changes into projection-view actions, row by
    row."""

    def bind(self, view, table):
        return Binding(view, table, self.compile)

    def compile(self, db, txn, view, table, before, after, net):
        old, new = view.entry(before), view.entry(after)
        if old == new:
            return []
        index = db.index(view.name)
        if old is not None and new is not None and old[0] == new[0]:
            key, row = new
            at = index.locate(key)
            return [self._action(
                "patch", view, key, locks_for_update(index, key),
                lambda d, t: patch(d, t, index, key, row, at),
            )]
        actions = []
        if old is not None:
            old_key = old[0]
            old_at = index.locate(old_key)
            if old_at.live() is not None:
                actions.append(self._action(
                    "ghost", view, old_key,
                    locks_for_logical_delete(index, old_key),
                    lambda d, t: ghost(d, t, index, old_key, old_at),
                ))
        if new is not None:
            new_key, new_row = new
            new_at = index.locate(new_key)
            if new_at.live() is not None:
                raise CatalogError(
                    f"index {view.name!r}: duplicate value {new_key!r}"
                )
            actions.append(self._action(
                "insert", view, new_key,
                locks_for_insert(index, new_key, db.config.serializable, new_at),
                lambda d, t: put(d, t, index, new_key, new_row, new_at),
            ))
        return actions

    @staticmethod
    def _action(verb, view, vkey, plan, write):
        def apply(d, t):
            write(d, t)
            t.stats.view_maintenances += 1
            # proj.row_inserted / proj.row_ghosted / proj.row_patched
            d.counters.incr(f"proj.row_{verb}ed")

        return Action((f"proj-{verb}", view.name, vkey), plan, apply)
