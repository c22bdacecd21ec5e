"""Symbolic lock footprints of statement shapes, read from the write plans.

A *footprint* is the ordered list of locks a statement shape may
acquire, against symbolic keys (``<pk(sales)>``, ``<group>``, ``<fk>``).
A DML shape's steps are the lock entries
(:data:`~repro.locking.keyrange.LockEntry`) of the table's write plan —
the base row's and each view ``Binding``'s — and each verb an entry
lists is the plan function the runtime calls on concrete keys
(:data:`~repro.locking.keyrange.PLANS`), evaluated against the symbol.
Every verb counts (the worst case); a lock only an absent key takes
says so in its reason.

The one-row model: steps come in the order the runtime takes them for
one row change — the table's IX; an UPDATE's or DELETE's row X; the
views' compile-phase reads, in catalog order; then an INSERT's own key
and the views' writes, in catalog order. Orders between the rows of a
multi-row statement are not modelled. The grammar (``docs/ANALYSIS.md``
§5)::

    step     := index '/' resource ':' mode '-- ' reason
    resource := 'table' | 'key' sym | 'gap' sym | 'range' sym
"""

from repro.common import CatalogError
from repro.locking import LockMode, RangeMode
from repro.locking.keyrange import (
    PHASES,
    PLANS,
    gap_only,
    locks_for_point_read,
    symbolic_plan,
)
from repro.views.maintenance import MaintenanceEngine, base_locks


class LockStep:
    """One ``(index, resource, mode)`` acquisition with its reason, and
    the view whose binding takes it (``None``: the statement's own)."""

    __slots__ = ("index", "resource", "mode", "reason", "view")

    def __init__(self, index, resource, mode, reason, view=None):
        self.index = index
        self.resource = resource
        self.mode = mode
        self.reason = reason
        self.view = view

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
        return tuple(dict.fromkeys(step.index for step in self.steps))

    def render_lines(self):
        lines = [f"footprint {self.label}:"]
        lines.extend(f"  {step.render()}" for step in self.steps)
        lines.extend(f"  note: {note}" for note in self.notes)
        return lines

    def __repr__(self):
        return f"Footprint({self.label!r}, {len(self.steps)} steps)"


def _plan_steps(index, sym, plan, why, view=None, serializable=True):
    """The steps ``plan`` takes on the symbolic key ``sym`` of ``index``."""
    steps = []
    for _, mode, absent in symbolic_plan(plan, index, sym, serializable):
        if gap_only(mode):
            resource = f"gap {sym}"
            name = "RangeI-N" if mode == RangeMode.RANGE_I_N else "RangeS-S"
        else:
            resource, name = f"key {sym}", mode.key_mode.value
        reason = (f"{view}: {why}" if view else why) + (
            " (only if the key is absent)" if absent else "")
        steps.append(LockStep(index, resource, name, reason, view))
    return steps


def _entry_steps(view, entry, serializable):
    """Every verb's steps of one lock entry, each lock once."""
    steps = {}
    for verb in entry.verbs:
        for step in _plan_steps(entry.index, entry.key, PLANS[verb], verb,
                                view, serializable):
            steps.setdefault((step.resource, step.mode), step)
    return list(steps.values())


def statement_footprint(catalog, table, op, strategy="escrow",
                        serializable=True):
    """The worst-case footprint of one row's ``op`` (insert/update/
    delete) on ``table``: the lock entries of its write plan — the base
    row's, then every view binding's — in the order the runtime takes
    them."""
    if op not in ("insert", "update", "delete"):
        raise CatalogError(f"unknown statement shape {op!r}")
    entries = [(None, entry) for entry in base_locks(table)[op]]
    for binding in MaintenanceEngine(catalog, strategy).bindings(table):
        entries += [(binding.view.name, entry) for entry in binding.locks[op]]
    entries.sort(key=lambda pair: PHASES.index(pair[1].phase))
    steps = [LockStep(table, "table", "IX", "intention lock for row DML")]
    for view, entry in entries:
        steps += _entry_steps(view, entry, serializable)
    notes = [
        f"view {view.name}: hand-written predicate "
        f"({view.where.description}) is opaque; footprint assumes every "
        f"base row is relevant"
        for view in catalog.views_on(table) if is_opaque(view)
    ]
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
        mode = LockMode.U if for_update else LockMode.S
        return Footprint(f"read {name}", _plan_steps(
            name, key_sym,
            lambda *where: locks_for_point_read(*where, mode=mode),
            "locate the row to change" if for_update else
            "point read (waits out escrow writers of this key only)",
        ))
    if path == "range":
        resource = "range <key range>"
        reach = "the keys in range plus the fence above"
    else:
        resource, reach = "range *", "every key plus the tail fence"
    return Footprint(f"scan {name}", [LockStep(
        name, resource, "RangeS-S", f"serializable scan locks {reach}"
    )])


def is_opaque(view):
    """True when the view's predicate is a hand-written closure with no
    AST — the analyzer must assume every row matches (SA003)."""
    return view.where is not None and getattr(view.where, "ast", None) is None
