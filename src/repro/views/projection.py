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
from repro.locking.keyrange import PLANS, LockEntry
from repro.txn.write import ghost, patch, put
from repro.views.actions import Action, Binding


class ProjectionMaintainer:
    """Compiles base-table changes into projection-view actions, row by
    row."""

    def bind(self, view, table):
        """An INSERT inserts the entry, a DELETE ghosts it; an UPDATE
        patches it, or ghosts it and inserts the one it becomes."""
        def entry(*verbs):
            return (LockEntry("write", view.name, "<view key>", verbs),)

        return Binding(view, table, {
            "insert": entry("insert"),
            "update": entry("patch", "ghost", "insert"),
            "delete": entry("ghost"),
        }, self.compile)

    def compile(self, db, txn, view, table, before, after, net):
        old, new = view.entry(before), view.entry(after)
        if old == new:
            return []
        index = db.index(view.name)
        if old is not None and new is not None and old[0] == new[0]:
            key, row = new
            at = index.locate(key)
            return [self._action(
                db, "patch", view, index, key, at,
                lambda d, t: patch(d, t, index, key, row, at),
            )]
        actions = []
        if old is not None:
            old_key = old[0]
            old_at = index.locate(old_key)
            if old_at.live() is not None:
                actions.append(self._action(
                    db, "ghost", view, index, old_key, old_at,
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
                db, "insert", view, index, new_key, new_at,
                lambda d, t: put(d, t, index, new_key, new_row, new_at),
            ))
        return actions

    @staticmethod
    def _action(db, verb, view, index, vkey, at, write):
        def apply(d, t):
            write(d, t)
            t.stats.view_maintenances += 1
            # proj.row_inserted / proj.row_ghosted / proj.row_patched
            d.counters.incr(f"proj.row_{verb}ed")

        plan = PLANS[verb](index, vkey, at, db.config.serializable)
        return Action((f"proj-{verb}", view.name, vkey), plan, apply)
