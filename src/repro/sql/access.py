"""Access paths: how much of an index a WHERE clause lets a statement read.

A table or an indexed view *is* a B-tree on its key columns, so a
predicate that pins a prefix of that key does not need the whole index.
:func:`plan_access` splits a WHERE tree into its top-level conjuncts,
keeps those comparing a key column with a literal (``=``, ``<``, ``<=``,
``>``, ``>=``, ``BETWEEN``, single-value ``IN``; either operand order),
and picks one of three paths:

=========  ==========================================  ====================
path       chosen when                                 engine call
=========  ==========================================  ====================
``point``  every key column is pinned by an equality   ``db.read``
``range``  a leading run of key columns is pinned,     ``db.scan`` over a
           and/or the next one is bounded              :class:`KeyRange`
``full``   anything else (``OR``/``NOT`` at the top,   ``db.scan`` over the
           ``<>``, NULL literals, non-key columns)     whole index
=========  ==========================================  ====================

The path only narrows what is *read* (and therefore locked); callers
re-apply the whole predicate to the rows they get back, so a conjunct the
planner ignored — or used only partially — can never change the answer.

:func:`access_shape` makes the choice once per statement shape: its key
and bounds hold the literals themselves, and :meth:`AccessPath.bind`
gives one run's path from that run's values. The path's kind never
depends on a value, only on a literal's type, which the shape's cache
key carries (a NULL never narrows).
"""

from repro.common.keys import NEG_INF, POS_INF, KeyBound, KeyRange
from repro.sql import ast
from repro.sql.binder import literal_value

POINT = "point"
RANGE = "range"
FULL = "full"


class AccessPath:
    """One chosen path: ``kind`` plus the key (point) or key range."""

    __slots__ = ("kind", "key", "key_range")

    def __init__(self, kind, key=None, key_range=None):
        self.kind = kind
        self.key = key
        self.key_range = key_range

    def orders_with(self, stored_key):
        """Can this path's key or bounds be ordered against
        ``stored_key``, one key of the index to be read (``None`` for an
        empty index, which compares nothing)? Checked column by column:
        an index's keys are mutually comparable, or the B-tree could not
        hold them, so one stored key speaks for all of them."""
        if stored_key is None or self.kind == FULL:
            return True
        if self.kind == POINT:
            keys = (self.key,)
        else:
            keys = (self.key_range.low.key, self.key_range.high.key)
        try:
            for key in keys:
                if key is NEG_INF or key is POS_INF:  # an unbounded end
                    continue
                for value, stored in zip(key, stored_key):
                    value < stored
        except TypeError:
            return False
        return True

    def bind(self, params):
        """This path with each literal of its key or bounds replaced by
        its value in ``params`` (``None``: as written)."""
        if self.kind == FULL:
            return self
        if self.kind == POINT:
            return AccessPath(POINT, key=_bind_key(self.key, params))
        low, high = self.key_range.low, self.key_range.high
        return AccessPath(RANGE, key_range=KeyRange(
            KeyBound(_bind_key(low.key, params), low.inclusive),
            KeyBound(_bind_key(high.key, params), high.inclusive),
        ))

    def __repr__(self):
        if self.kind == POINT:
            return f"AccessPath(point {self.key!r})"
        if self.kind == RANGE:
            return f"AccessPath(range {self.key_range!r})"
        return "AccessPath(full)"


FULL_SCAN = AccessPath(FULL)


def _bind_key(key, params):
    if key is NEG_INF or key is POS_INF:  # an unbounded end
        return key
    return tuple(
        literal_value(part, params) if isinstance(part, ast.Literal)
        else part
        for part in key
    )


_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _conjuncts(expr):
    """The top-level AND operands of a WHERE tree, left to right."""
    if isinstance(expr, ast.And):
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _column_vs_literal(column, literal):
    # NULL never narrows: `=` against it is Python equality in this
    # dialect, and no B-tree orders None against real key values.
    return (
        isinstance(column, ast.ColumnRef)
        and isinstance(literal, ast.Literal)
        and literal.value is not None
    )


def _constraints(conjunct):
    """``(column_ref, op, literal)`` triples one conjunct pins, if any."""
    if isinstance(conjunct, ast.Comparison) and conjunct.op in _FLIPPED:
        left, right = conjunct.left, conjunct.right
        if _column_vs_literal(left, right):
            yield left, conjunct.op, right
        elif _column_vs_literal(right, left):
            yield right, _FLIPPED[conjunct.op], left
    elif isinstance(conjunct, ast.Between):
        if _column_vs_literal(conjunct.item, conjunct.low):
            yield conjunct.item, ">=", conjunct.low
        if _column_vs_literal(conjunct.item, conjunct.high):
            yield conjunct.item, "<=", conjunct.high
    elif isinstance(conjunct, ast.InList) and len(conjunct.values) == 1:
        if _column_vs_literal(conjunct.item, conjunct.values[0]):
            yield conjunct.item, "=", conjunct.values[0]


def _bound(prefix, limit, pad, is_low):
    """One end of the range below ``prefix``: ``limit`` is ``(value,
    inclusive)`` on the next key column or ``None``; ``pad`` trailing
    columns are filled with an infinity sentinel so the bound sits just
    outside (or just inside) every key sharing ``prefix + (value,)``."""
    if limit is None:
        if not prefix:
            return (
                KeyBound.unbounded_low() if is_low
                else KeyBound.unbounded_high()
            )
        filler = NEG_INF if is_low else POS_INF
        return KeyBound(prefix + (filler,) * (pad + 1), True)
    value, inclusive = limit
    filler = NEG_INF if is_low == inclusive else POS_INF
    return KeyBound(prefix + (value,) + (filler,) * pad, inclusive)


def plan_access(where, key_columns, resolve):
    """Choose the access path ``where`` allows over an index keyed on
    ``key_columns``, its literals as written. ``resolve`` maps a
    ColumnRef to its bare column name (``Scope.resolve``)."""
    return access_shape(where, key_columns, resolve).bind(None)


def access_shape(where, key_columns, resolve):
    """The access path of every statement sharing ``where``'s shape: its
    key and bounds hold the literals (see :meth:`AccessPath.bind`). The
    first constraint of each kind on a column wins; later ones are left
    to the caller's residual filter."""
    if where is None:
        return FULL_SCAN
    equal, lower, upper = {}, {}, {}
    for conjunct in _conjuncts(where):
        for ref, op, value in _constraints(conjunct):
            column = resolve(ref)
            if op == "=":
                equal.setdefault(column, value)
            elif op in (">", ">="):
                lower.setdefault(column, (value, op == ">="))
            else:
                upper.setdefault(column, (value, op == "<="))
    prefix = []
    for column in key_columns:
        if column not in equal:
            break
        prefix.append(equal[column])
    prefix = tuple(prefix)
    if len(prefix) == len(key_columns):
        return AccessPath(POINT, key=prefix)
    column = key_columns[len(prefix)]
    low, high = lower.get(column), upper.get(column)
    if not prefix and low is None and high is None:
        return FULL_SCAN
    pad = len(key_columns) - len(prefix) - 1
    return AccessPath(
        RANGE,
        key_range=KeyRange(
            _bound(prefix, low, pad, True), _bound(prefix, high, pad, False)
        ),
    )
