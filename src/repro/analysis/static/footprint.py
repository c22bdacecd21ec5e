"""Symbolic lock footprints of statement shapes.

A *footprint* is the ordered list of locks a statement shape may
acquire, written against symbolic keys (``<pk(sales)>``, ``<group>``,
``<fk>``) because actual key values are unknown statically. Each step
mirrors one plan the runtime actually builds:

* base DML takes a table IX intention lock, then the key-range plan of
  :mod:`repro.locking.keyrange` (fence RangeI-N + key X for inserts,
  key X for updates/ghost deletes);
* projection maintenance inserts, patches or ghosts the row's entry; a
  secondary index (a projection keyed by other columns) moves its entry
  on UPDATE — X on the old key, then RangeI-N + X on the new one;
* aggregate maintenance takes E on the group's view row under the
  escrow strategy (X under xlock, and always X for MIN/MAX columns),
  with the group-creation fence + X as the worst-case alternative;
* deleting from a MIN/MAX view's base may *rescan the group* — S
  range locks back on the base table, acquired while the view row's X
  is held (the reverse edge that makes extreme views deadlock-prone);
* join maintenance reads the other side: a left-side insert point-reads
  the right table (S), a right-side insert scans the ``<v>#leftfk``
  secondary and point-reads the left table (S) — opposite orders, the
  classic deadlock shape.

The footprint grammar (``docs/ANALYSIS.md``)::

    step     := index '/' resource ':' mode '-- ' reason
    resource := 'table' | 'key' sym | 'gap' sym | 'range' sym
    sym      := '<pk(T)>' | '<group>' | '<fk>' | '<matches>' | '*'

Footprints are *worst-case*: a step that only happens on some branch
(group creation, fk change) is still listed, flagged in its reason.
The lock-order graph consumes the step order; ``EXPLAIN`` renders the
steps verbatim.
"""

from repro.common import CatalogError


class LockStep:
    """One ``(index, resource, mode)`` acquisition with its reason."""

    __slots__ = ("index", "resource", "mode", "reason")

    def __init__(self, index, resource, mode, reason):
        self.index = index
        self.resource = resource
        self.mode = mode
        self.reason = reason

    def render(self):
        return f"{self.index}/{self.resource}: {self.mode} -- {self.reason}"

    def __repr__(self):
        return f"LockStep({self.render()!r})"


class Footprint:
    """The ordered worst-case lock acquisitions of one statement shape."""

    __slots__ = ("label", "steps", "notes")

    def __init__(self, label, steps, notes=()):
        self.label = label
        self.steps = tuple(steps)
        self.notes = tuple(notes)

    def indexes_in_order(self):
        """Distinct index names in first-acquisition order."""
        seen = []
        for step in self.steps:
            if step.index not in seen:
                seen.append(step.index)
        return tuple(seen)

    def render_lines(self):
        lines = [f"footprint {self.label}:"]
        lines.extend(f"  {step.render()}" for step in self.steps)
        lines.extend(f"  note: {note}" for note in self.notes)
        return lines

    def __repr__(self):
        return f"Footprint({self.label!r}, {len(self.steps)} steps)"


def _pk_sym(table):
    return f"<pk({table})>"


def _agg_row_mode(view, strategy):
    """The lock mode maintenance takes on an *existing* group row."""
    if view.has_extremes() or strategy != "escrow":
        return "X"
    return "E"


def _agg_delta_steps(view, strategy, sign_word):
    """Steps for folding one contribution into a view group row."""
    mode = _agg_row_mode(view, strategy)
    why = (
        f"{sign_word} the group's counters "
        f"({'escrow delta commutes with concurrent deltas' if mode == 'E' else 'exclusive read-modify-write'})"
    )
    steps = [LockStep(view.name, "key <group>", mode, why)]
    steps.append(
        LockStep(
            view.name, "gap <group>", "RangeI-N",
            "only if the group does not exist yet: fence its gap",
        )
    )
    steps.append(
        LockStep(
            view.name, "key <group>", "X",
            "only on group creation/revival: install the zero row",
        )
    )
    return steps


def _extreme_rescan_steps(view):
    """Deleting a group's current MIN/MAX forces a rescan of the base
    table's group rows — read locks taken *while the view row's X is
    held*, which is what turns extreme views into deadlock-order
    hazards."""
    return [
        LockStep(
            view.base, "range <group rows>", "S",
            "rescan the group to recompute MIN/MAX after deleting the "
            "current extreme (worst case)",
        )
    ]


def _view_insert_steps(view, serializable=True):
    steps = []
    if serializable:
        steps.append(
            LockStep(
                view.name, "gap <view key>", "RangeI-N",
                "fence the gap receiving the new view row",
            )
        )
    steps.append(
        LockStep(view.name, "key <view key>", "X", "the new view row")
    )
    return steps


def _opaque_note(view):
    if view.where is not None and getattr(view.where, "ast", None) is None:
        return (
            f"view {view.name}: hand-written predicate "
            f"({view.where.description}) is opaque; footprint assumes "
            f"every base row is relevant",
        )
    return ()


def _projection_steps(view, table, op, primary_key, serializable):
    """A projection keyed by the base primary key patches or ghosts the
    one entry a base row derives. One keyed by other columns (a
    secondary index) ghosts its old entry on DELETE and, on UPDATE, may
    also move it: X on the old key, then the fence and X of the new."""
    if op == "insert":
        return _view_insert_steps(view, serializable)
    if view.key_columns == primary_key:
        return [
            LockStep(
                view.name, f"key {_pk_sym(table)}", "X",
                "patch/ghost the projected row",
            )
        ]
    steps = [LockStep(view.name, "key <view key>", "X", "ghost the old entry")]
    if op == "update":
        steps.extend(_view_insert_steps(view, serializable))
    return steps


def _maintenance_steps(view, table, op, strategy, serializable, primary_key):
    """The maintenance tail of ``op`` on ``table`` for one view."""
    steps = []
    if view.kind == "projection":
        steps.extend(
            _projection_steps(view, table, op, primary_key, serializable)
        )
    elif view.kind == "aggregate":
        sign = {"insert": "increment", "delete": "decrement",
                "update": "move/adjust"}[op]
        steps.extend(_agg_delta_steps(view, strategy, sign))
        if view.has_extremes() and op in ("delete", "update"):
            steps.extend(_extreme_rescan_steps(view))
    elif view.kind in ("join", "join_aggregate"):
        steps.extend(
            _join_maintenance_steps(view, table, op, strategy, serializable)
        )
    return steps


def _join_maintenance_steps(view, table, op, strategy, serializable):
    """Join maintenance mirrors :mod:`repro.views.join`: the side being
    written determines which *other* indexes are read, and in what
    order."""
    steps = []
    is_left = table == view.left
    aggregate = view.kind == "join_aggregate"

    def emit_view_write(sign_word):
        if aggregate:
            steps.extend(_agg_delta_steps(view, strategy, sign_word))
        elif sign_word == "increment":
            steps.extend(_view_insert_steps(view, serializable))
        else:
            steps.append(
                LockStep(
                    view.name, "key <view key>", "X",
                    "ghost/patch the joined view row",
                )
            )

    if is_left:
        if op in ("insert", "update"):
            steps.append(
                LockStep(
                    view.right, "key <fk>", "S",
                    "point-read the matched right row (gap-S fence when "
                    "absent)",
                )
            )
        emit_view_write("increment" if op == "insert" else "move/adjust")
    else:
        steps.append(
            LockStep(
                view.leftfk_index.name, "range <matches>", "S",
                "scan the fk secondary for left rows matching the right "
                "key",
            )
        )
        steps.append(
            LockStep(
                view.left, f"key {_pk_sym(view.left)}", "S",
                "point-read each matching left row",
            )
        )
        emit_view_write("increment" if op == "insert" else "move/adjust")
    return steps


def statement_footprint(catalog, table, op, strategy="escrow",
                        serializable=True):
    """The worst-case footprint of ``op`` (insert/update/delete) on
    ``table``, including maintenance fan-out over every registered view,
    in the order the runtime performs it."""
    if op not in ("insert", "update", "delete"):
        raise CatalogError(f"unknown statement shape {op!r}")
    pk = _pk_sym(table)
    steps = [LockStep(table, "table", "IX", "intention lock for row DML")]
    if op == "insert":
        if serializable:
            steps.append(
                LockStep(
                    table, f"gap {pk}", "RangeI-N",
                    "fence the gap receiving the new key",
                )
            )
        steps.append(LockStep(table, f"key {pk}", "X", "the new base row"))
    else:
        steps.append(
            LockStep(
                table, f"key {pk}", "X",
                "the updated row" if op == "update" else
                "ghost the deleted row",
            )
        )
    notes = []
    primary_key = catalog.table(table).primary_key
    for view in catalog.views_on(table):
        steps.extend(_maintenance_steps(
            view, table, op, strategy, serializable, primary_key
        ))
        notes.extend(_opaque_note(view))
    return Footprint(f"{op} {table}", steps, notes)


def index_read_footprint(name, key_sym, path="full", for_update=False):
    """Reading one index (a base table's or a view's) by an access path
    (``point``, ``range`` or ``full``, see :mod:`repro.sql.access`). A
    read touches only the index it names — the reason reads never
    contribute reverse edges to the lock-order graph.
    ``for_update`` is the locate step of an UPDATE/DELETE, whose point
    read takes U so the write's X is a conversion, not a second queue.
    Every key lock implies its table intention lock (IS), not listed."""
    if path == "point":
        steps = [
            LockStep(
                name, f"key {key_sym}", "U" if for_update else "S",
                "locate the row to change" if for_update else
                "point read (waits out escrow writers of this key only)",
            ),
            LockStep(
                name, f"gap {key_sym}", "RangeS-S",
                "only if the key is absent: fence its gap so \"not "
                "there\" stays true",
            ),
        ]
        return Footprint(f"read {name}", steps)
    if path == "range":
        resource = "range <key range>"
        reach = "the keys in range plus the fence above"
    else:
        resource, reach = "range *", "every key plus the tail fence"
    step = LockStep(
        name, resource, "RangeS-S", f"serializable scan locks {reach}"
    )
    return Footprint(f"scan {name}", [step])


def view_footprints(catalog, view, strategy="escrow", serializable=True):
    """All statement footprints that involve ``view``: every DML shape
    on each of its base tables (which covers sibling views registered on
    the same tables — fan-out is part of the footprint)."""
    prints = []
    for table in view.base_tables():
        for op in ("insert", "update", "delete"):
            prints.append(
                statement_footprint(catalog, table, op, strategy,
                                    serializable)
            )
    return prints


def fanout_indexes(catalog, table):
    """Indexes (beyond the base) written or read when ``table`` changes
    — the maintenance fan-out a DML statement signs up for."""
    out = []
    for view in catalog.views_on(table):
        out.append(view.name)
        if view.kind in ("join", "join_aggregate"):
            other = view.right if table == view.left else view.left
            out.append(other)
            if table != view.left:
                out.append(view.leftfk_index.name)
    seen = []
    for name in out:
        if name not in seen and name != table:
            seen.append(name)
    return tuple(seen)


def is_opaque(view):
    """True when the view's predicate is a hand-written closure with no
    AST — the analyzer must assume every row matches (SA003)."""
    return (
        view.where is not None and getattr(view.where, "ast", None) is None
    )
