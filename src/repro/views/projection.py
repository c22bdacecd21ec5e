"""Projection-view maintenance (SELECT cols FROM base WHERE p).

The simplest view shape: one view row per qualifying base row, keyed by
the base primary key. Its interesting case is the predicate boundary — an
update can move a row *into* or *out of* the view, which is an insert or
a (ghosted) delete on the view index, with the corresponding key-range
locking.
"""

from repro.locking.keyrange import (
    locks_for_insert,
    locks_for_logical_delete,
    locks_for_update,
)
from repro.txn.write import ghost, patch, put
from repro.views.actions import Action


class ProjectionMaintainer:
    """Compiles base-table changes into projection-view actions."""

    def compile(self, db, txn, view, table, op, before, after):
        was_in = before is not None and view.relevant(before)
        now_in = after is not None and view.relevant(after)
        index = db.index(view.name)
        if not now_in:
            if not was_in:
                return []
            vkey = view.key_of(view.project(before))
            if index.get_record(vkey) is None:
                return []
            return [self._action(
                "ghost", view, vkey, locks_for_logical_delete(index, vkey),
                lambda d, t: ghost(d, t, index, vkey),
            )]
        view_row = view.project(after)
        vkey = view.key_of(view_row)
        if was_in:
            # stayed in the view: in-place patch (the key cannot change —
            # base primary keys are immutable in this engine)
            return [self._action(
                "patch", view, vkey, locks_for_update(index, vkey),
                lambda d, t: patch(d, t, index, vkey, view_row),
            )]
        return [self._action(
            "insert", view, vkey,
            locks_for_insert(index, vkey, db.config.serializable),
            lambda d, t: put(d, t, index, vkey, view_row),
        )]

    @staticmethod
    def _action(verb, view, vkey, plan, write):
        def apply(d, t):
            write(d, t)
            t.stats.view_maintenances += 1
            # proj.row_inserted / proj.row_ghosted / proj.row_patched
            d.counters.incr(f"proj.row_{verb}ed")

        return Action(f"proj-{verb} {view.name}{vkey!r}", plan, apply)
