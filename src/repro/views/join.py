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
from repro.locking.keyrange import PLANS, LockEntry
from repro.txn.write import ghost, patch, put
from repro.views.actions import Action, Binding


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
            ("leftfk-ghost", aux.name, old_key), [],
            lambda d, t: ghost(d, t, index, old_key),
        ))
    if after is not None:
        new_key, ref_row = aux.entry(after)
        actions.append(Action(
            ("leftfk-insert", aux.name, new_key), [],
            lambda d, t: put(d, t, index, new_key, ref_row),
        ))
    return actions


def join_read(view, table):
    """The lock entry of the other side's rows a change to ``table``
    reads under S while compiling: a left row's matched right row (by its
    fk), or a right row's matching left rows (each by its key; the
    ``#leftfk`` scan that finds them takes no lock)."""
    if table == view.left:
        return LockEntry("read", view.right, "<fk>", ("read",))
    return LockEntry("read", view.left, f"<pk({view.left})>", ("read",))


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
    """Compiles base-table changes into join-view actions, row by row."""

    def bind(self, view, table):
        """A new row joins the rows it reads; an UPDATE patches or ghosts
        its view rows — and, changing a left row's fk, reads the new
        match and inserts; a DELETE ghosts them."""
        def rows(*verbs):
            return LockEntry("write", view.name, "<view key>", verbs)

        read = join_read(view, table)
        if table == view.left:
            update = (read, rows("patch", "ghost", "insert"))
        else:
            update = (rows("patch", "ghost"),)
        return Binding(view, table, {
            "insert": (read, rows("insert")),
            "update": update,
            "delete": (rows("ghost"),),
        }, self.compile)

    def compile(self, db, txn, view, table, before, after, net):
        if before is None:
            return self._compile_insert(db, txn, view, table, after)
        if after is None:
            return self._compile_delete(db, txn, view, table, before)
        # An update decomposes into delete + insert unless the row's join
        # behaviour is unchanged: then its view rows are patched in place.
        join_cols = (
            [lc for lc, _ in view.on] if table == view.left else view.right_pk
        )
        if any(before[c] != after[c] for c in join_cols):
            return self._compile_delete(db, txn, view, table, before) + (
                self._compile_insert(db, txn, view, table, after)
            )
        actions = []
        for vkey in self._view_keys(db, view, table, before):
            actions += self._patch(db, view, vkey, before, after)
        return actions

    def _compile_insert(self, db, txn, view, table, row):
        """A left row joins its matched right row, read under an S lock
        (compile phase: nothing has mutated yet); a new right row may
        match left rows inserted before it (no FK enforcement here)."""
        if table == view.left:
            actions = leftfk_actions(db, view, view.left, None, row)
            right_row = db.locked_row(txn, db.index(view.right), view.left_fk_of(row))
            joined = [] if right_row is None else [row.merge(right_row)]
        else:
            actions = []
            joined = [
                left_row.merge(row) for left_row in left_rows_referencing(
                    db, txn, view, db.catalog.table(view.right).key_of(row)
                )
            ]
        for joined_row in joined:
            if view.relevant(joined_row):
                view_row = joined_row.project(view.columns)
                vkey = view.key_of(view_row)
                actions += self._action(db, view, "insert", vkey, view_row,
                                        put, view_row)
        return actions

    def _compile_delete(self, db, txn, view, table, row):
        actions = leftfk_actions(db, view, table, row, None)
        for vkey in self._view_keys(db, view, table, row):
            actions += self._ghost(db, view, vkey)
        return actions

    def _ghost(self, db, view, vkey):
        record = db.index(view.name).get_record(vkey)
        if record is None:
            return []
        return self._action(db, view, "ghost", vkey, record.current_row, ghost)

    def _patch(self, db, view, vkey, before, after):
        record = db.index(view.name).get_record(vkey)
        if record is None:
            return []
        changed = {
            c: after[c]
            for c in view.columns
            if c in after and c in before and before[c] != after[c]
        }
        if not changed:
            return []
        new_view_row = record.current_row.replace(**changed)
        if not view.relevant(new_view_row):
            # The update pushed the joined row out of the view's predicate.
            return self._ghost(db, view, vkey)
        return self._action(db, view, "patch", vkey, record.current_row,
                            patch, new_view_row)

    @staticmethod
    def _action(db, view, verb, vkey, view_row, write, *row):
        """One view row's action: ``write`` (``put`` / ``ghost`` /
        ``patch``) at ``vkey`` in the view and at the ``#right`` entry
        ``view_row`` derives, under the view key's ``verb`` plan (which
        covers the ``#right`` entry)."""
        primary, secondary = db.index(view.name), db.index(view.right_index.name)
        skey, _ = view.right_index.entry(view_row)
        plan = PLANS[verb](primary, vkey, None, db.config.serializable)

        def apply(d, t):
            write(d, t, primary, vkey, *row)
            write(d, t, secondary, skey, *row)
            t.stats.view_maintenances += 1
            # join.row_inserted / join.row_ghosted / join.row_patched
            d.counters.incr(f"join.row_{verb}ed")

        return [Action((f"join-{verb}", view.name, vkey), plan, apply)]

    def _view_keys(self, db, view, table, row):
        """Keys of the view rows a left or right base row joined into:
        a prefix of the view index for a left row, of ``#right`` for a
        right row."""
        if table == view.left:
            index = db.index(view.name)
        else:
            index = db.index(view.right_index.name)
        prefix = db.catalog.table(table).key_of(row)
        rng = KeyRange.prefix(prefix, len(index.key_columns))
        return [view.key_of(record.current_row) for _, record in index.scan(rng)]
