"""Join-view maintenance.

A join view materializes ``left ⋈ right`` keyed by (left pk, right pk) and
carries a **secondary index** keyed by (right pk, left pk) so that
right-side deletes find their view rows without scanning — indexed views
with multiple indexes, exactly as the paper's title says.

Two auxiliary structures are maintained alongside:

* ``<view>#right`` — the secondary index on the view (logged, recovered);
* ``<view>#leftfk`` — an internal index on the *left base table*'s join
  columns, created automatically when the view is, so that inserting a
  right row can find pre-existing left rows that reference it. Its entries
  are covered by the base row's own lock (a documented simplification:
  locking the base key protects its derived index entries).

View rows are deleted by **ghosting** (like aggregate groups): the key
stays as a lockable fence post until the ghost cleaner removes it.
"""

from repro.common.keys import KeyRange
from repro.locking.keyrange import (
    locks_for_insert,
    locks_for_logical_delete,
    locks_for_update,
)
from repro.txn.write import ghost, patch, put
from repro.views.actions import Action


def leftfk_actions(db, view, table, before, after):
    """Maintain a join-shaped view's ``#leftfk`` index for one
    left-table change: ghost the old entry, put the new one. Entries are
    covered by the base row's own lock, so the actions carry no plan."""
    if table != view.left:
        return []
    aux = view.leftfk_index
    index = db.index(aux.name)
    actions = []
    if before is not None:
        old_key, _ = aux.entry(before)
        actions.append(Action(
            f"leftfk-ghost {aux.name}{old_key!r}", [],
            lambda d, t: ghost(d, t, index, old_key),
        ))
    if after is not None:
        new_key, ref_row = aux.entry(after)
        actions.append(Action(
            f"leftfk-insert {aux.name}{new_key!r}", [],
            lambda d, t: put(d, t, index, new_key, ref_row),
        ))
    return actions


def left_rows_referencing(db, txn, view, right_key):
    """The left rows whose join columns equal ``right_key``, found
    through ``#leftfk`` and each read under an S lock (compile phase:
    nothing has mutated yet)."""
    fk_index = db.index(view.leftfk_index.name)
    matches = list(
        fk_index.scan(KeyRange.prefix(right_key, len(fk_index.key_columns)))
    )
    left_index = db.index(view.left)
    rows = []
    for _, ref_record in matches:
        left_key = ref_record.current_row.key(view.left_pk)
        left_row = db.locked_row(txn, left_index, left_key)
        if left_row is not None:
            rows.append(left_row)
    return rows


class JoinMaintainer:
    """Compiles base-table changes into join-view actions."""

    # ------------------------------------------------------------------
    # statement compilation
    # ------------------------------------------------------------------

    def compile(self, db, txn, view, table, before, after):
        if before is None:
            return self._compile_insert(db, txn, view, table, after)
        if after is None:
            return self._compile_delete(db, txn, view, table, before)
        return self._compile_update(db, txn, view, table, before, after)

    def _compile_insert(self, db, txn, view, table, row):
        if table == view.left:
            return self._compile_left_insert(db, txn, view, row)
        return self._compile_right_insert(db, txn, view, row)

    def _compile_delete(self, db, txn, view, table, row):
        actions = leftfk_actions(db, view, table, row, None)
        for vkey in self._view_keys(db, view, table, row):
            actions.extend(self._ghost_view_row_actions(db, view, vkey))
        return actions

    def _compile_update(self, db, txn, view, table, before, after):
        """Updates decompose into delete+insert unless the row's join
        behaviour is unchanged, in which case affected view rows are
        patched in place."""
        join_cols = (
            [lc for lc, _ in view.on] if table == view.left else list(view.right_pk)
        )
        join_changed = any(before[c] != after[c] for c in join_cols)
        if join_changed:
            return self._compile_delete(db, txn, view, table, before) + (
                self._compile_insert(db, txn, view, table, after)
            )
        # In-place: re-derive each affected view row from the new base row.
        actions = []
        for vkey in self._view_keys(db, view, table, before):
            actions.extend(
                self._patch_view_row_actions(db, txn, view, table, vkey, before, after)
            )
        return actions

    # ------------------------------------------------------------------
    # left-side insert
    # ------------------------------------------------------------------

    def _compile_left_insert(self, db, txn, view, row):
        actions = leftfk_actions(db, view, view.left, None, row)
        right_index = db.index(view.right)
        fk = view.left_fk_of(row)
        # Read the matched right row under a shared lock (before any
        # mutation — this is still compile phase).
        right_row = db.locked_row(txn, right_index, fk)
        if right_row is None:
            return actions
        joined = row.merge(right_row)
        if not view.relevant(joined):
            return actions
        view_row = joined.project(view.columns)
        actions.extend(self._insert_view_row_actions(db, view, view_row))
        return actions

    def _compile_right_insert(self, db, txn, view, row):
        """A new right row may match left rows inserted before it (no FK
        enforcement here)."""
        actions = []
        right_key = db.table_key(view.right, row)
        for left_row in left_rows_referencing(db, txn, view, right_key):
            joined = left_row.merge(row)
            if not view.relevant(joined):
                continue
            view_row = joined.project(view.columns)
            actions.extend(self._insert_view_row_actions(db, view, view_row))
        return actions

    # ------------------------------------------------------------------
    # action builders
    # ------------------------------------------------------------------

    def _insert_view_row_actions(self, db, view, view_row):
        vkey = view.key_of(view_row)
        primary = db.index(view.name)
        secondary = db.index(view.right_index.name)
        skey, _ = view.right_index.entry(view_row)
        plan = locks_for_insert(primary, vkey, db.config.serializable)

        def apply(d, t):
            put(d, t, primary, vkey, view_row)
            put(d, t, secondary, skey, view_row)
            t.stats.view_maintenances += 1
            d.counters.incr("join.row_inserted")

        return [Action(f"join-insert {view.name}{vkey!r}", plan, apply)]

    def _ghost_view_row_actions(self, db, view, vkey):
        primary = db.index(view.name)
        record = primary.get_record(vkey)
        if record is None:
            return []
        secondary = db.index(view.right_index.name)
        skey, _ = view.right_index.entry(record.current_row)
        plan = locks_for_logical_delete(primary, vkey)

        def apply(d, t):
            ghost(d, t, primary, vkey)
            ghost(d, t, secondary, skey)
            t.stats.view_maintenances += 1
            d.counters.incr("join.row_ghosted")

        return [Action(f"join-ghost {view.name}{vkey!r}", plan, apply)]

    def _patch_view_row_actions(self, db, txn, view, table, vkey, before, after):
        primary = db.index(view.name)
        record = primary.get_record(vkey)
        if record is None:
            return []
        old_view_row = record.current_row
        changed = {
            c: after[c]
            for c in view.columns
            if c in after and c in before and before[c] != after[c]
        }
        if not changed:
            return []
        new_view_row = old_view_row.replace(**changed)
        if not view.relevant(new_view_row):
            # The update pushed the joined row out of the view's predicate.
            return self._ghost_view_row_actions(db, view, vkey)
        secondary = db.index(view.right_index.name)
        skey, _ = view.right_index.entry(old_view_row)
        plan = locks_for_update(primary, vkey)

        def apply(d, t):
            patch(d, t, primary, vkey, new_view_row)
            patch(d, t, secondary, skey, new_view_row)
            t.stats.view_maintenances += 1
            d.counters.incr("join.row_patched")

        return [Action(f"join-patch {view.name}{vkey!r}", plan, apply)]

    # ------------------------------------------------------------------
    # key plumbing
    # ------------------------------------------------------------------

    def _view_keys(self, db, view, table, row):
        """Keys of the view rows a left or right base row joined into:
        a prefix of the view index for a left row, of ``#right`` for a
        right row."""
        if table == view.left:
            index, prefix = db.index(view.name), db.table_key(view.left, row)
        else:
            index = db.index(view.right_index.name)
            prefix = db.table_key(view.right, row)
        rng = KeyRange.prefix(prefix, len(index.key_columns))
        return [view.key_of(record.current_row) for _, record in index.scan(rng)]
