"""The typed AST of the SQL dialect.

Every node carries ``pos`` — the ``(line, column)`` of its first token —
so the binder can raise position-carrying
:class:`~repro.common.BindError` long after parsing. Nodes are plain
data: no behaviour beyond ``repr`` and equality, so tests can build and
compare them structurally.

Statements::

    CreateTable(name, columns, primary_key)
    CreateView(name, unique, options, select)      -- CREATE [UNIQUE] INDEXED VIEW
    Insert(table, columns, rows)
    Update(table, sets, where)
    Delete(table, where)
    Select(items, table, join, where, group_by)
    CheckView(name)                                -- CHECK VIEW name
    Explain(statement)                             -- EXPLAIN <stmt>

Expressions (the WHERE / SET grammar)::

    Comparison(op, left, right)   InList(item, values)   Between(item, low, high)
    And(left, right)  Or(left, right)  Not(operand)
    ColumnRef(qualifier, name)    Literal(value)    Star()
    FuncCall(func, arg)           BinaryOp(op, left, right)
"""


class Node:
    """Base AST node: positional equality over ``_fields``."""

    _fields = ()

    def __init__(self, pos=None):
        self.pos = pos  # (line, column) of the node's first token

    def __repr__(self):
        parts = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__name__}({parts})"

    def __eq__(self, other):
        # Positions are deliberately excluded: two parses of equivalent
        # text compare equal even when whitespace moved the tokens.
        return type(self) is type(other) and all(
            getattr(self, name) == getattr(other, name)
            for name in self._fields
        )

    def __hash__(self):
        return hash(
            (type(self).__name__,)
            + tuple(repr(getattr(self, name)) for name in self._fields)
        )


# ---------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------


class Statement(Node):
    pass


class CreateTable(Statement):
    _fields = ("name", "columns", "primary_key")

    def __init__(self, name, columns, primary_key, pos=None):
        super().__init__(pos)
        self.name = name
        self.columns = tuple(columns)
        self.primary_key = tuple(primary_key)


class CreateView(Statement):
    """``CREATE [UNIQUE] INDEXED VIEW name [WITH (opt = val, ...)] AS
    <select>``. ``options`` maps lower-cased option names to literal
    values (``{"online": True}``)."""

    _fields = ("name", "unique", "options", "select")

    def __init__(self, name, unique, options, select, pos=None):
        super().__init__(pos)
        self.name = name
        self.unique = unique
        self.options = dict(options)
        self.select = select


class Insert(Statement):
    """``rows`` is a tuple of value tuples (already tuples of Literal)."""

    _fields = ("table", "columns", "rows")

    def __init__(self, table, columns, rows, pos=None):
        super().__init__(pos)
        self.table = table
        self.columns = tuple(columns) if columns is not None else None
        self.rows = tuple(tuple(r) for r in rows)


class Update(Statement):
    """``sets`` is a tuple of (column_name, expression) pairs."""

    _fields = ("table", "sets", "where")

    def __init__(self, table, sets, where, pos=None):
        super().__init__(pos)
        self.table = table
        self.sets = tuple(sets)
        self.where = where


class Delete(Statement):
    _fields = ("table", "where")

    def __init__(self, table, where, pos=None):
        super().__init__(pos)
        self.table = table
        self.where = where


class Select(Statement):
    _fields = ("items", "table", "join", "where", "group_by")

    def __init__(self, items, table, join=None, where=None, group_by=None,
                 pos=None):
        super().__init__(pos)
        self.items = tuple(items)
        self.table = table
        self.join = join
        self.where = where
        self.group_by = tuple(group_by) if group_by is not None else None


class CheckView(Statement):
    """``CHECK VIEW name`` — run the static analyzer over one
    registered view and return its report."""

    _fields = ("name",)

    def __init__(self, name, pos=None):
        super().__init__(pos)
        self.name = name


class Explain(Statement):
    """``EXPLAIN <stmt>`` — compile the wrapped statement and return
    its inferred lock footprint instead of executing it."""

    _fields = ("statement",)

    def __init__(self, statement, pos=None):
        super().__init__(pos)
        self.statement = statement


class SelectItem(Node):
    """One projection item: an expression with an optional ``AS`` alias."""

    _fields = ("expr", "alias")

    def __init__(self, expr, alias=None, pos=None):
        super().__init__(pos)
        self.expr = expr
        self.alias = alias


class TableRef(Node):
    _fields = ("name",)

    def __init__(self, name, pos=None):
        super().__init__(pos)
        self.name = name


class Join(Node):
    """``JOIN table ON left = right [AND ...]``; ``on`` is a tuple of
    (left_expr, right_expr) ColumnRef pairs as written."""

    _fields = ("table", "on")

    def __init__(self, table, on, pos=None):
        super().__init__(pos)
        self.table = table
        self.on = tuple(on)


# ---------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------


class Expr(Node):
    pass


class ColumnRef(Expr):
    _fields = ("qualifier", "name")

    def __init__(self, qualifier, name, pos=None):
        super().__init__(pos)
        self.qualifier = qualifier  # table name, or None
        self.name = name


class Literal(Expr):
    """A literal as written. ``slot`` is its place among the statement's
    literal values (``None`` for TRUE / FALSE / NULL, which a statement
    shape keeps as words); ``negated`` marks a folded sign (``-5`` is
    slot ``i`` negated). A prepared statement reads the slot; ``value``
    is what this parse saw there."""

    _fields = ("value",)

    def __init__(self, value, pos=None, slot=None, negated=False):
        super().__init__(pos)
        self.value = value
        self.slot = slot
        self.negated = negated


class Star(Expr):
    _fields = ()


class FuncCall(Expr):
    """``COUNT(*)`` / ``SUM(expr)`` / ``MIN(col)`` / ``MAX(col)``;
    ``func`` is the upper-cased name, ``arg`` a ColumnRef, Star, or
    (for SUM) an arithmetic expression tree of BinaryOp/Literal/
    ColumnRef nodes."""

    _fields = ("func", "arg")

    def __init__(self, func, arg, pos=None):
        super().__init__(pos)
        self.func = func
        self.arg = arg


class Comparison(Expr):
    """``op`` is one of ``= <> < <= > >=`` (``!=`` normalizes to
    ``<>``)."""

    _fields = ("op", "left", "right")

    def __init__(self, op, left, right, pos=None):
        super().__init__(pos)
        self.op = op
        self.left = left
        self.right = right


class Between(Expr):
    _fields = ("item", "low", "high")

    def __init__(self, item, low, high, pos=None):
        super().__init__(pos)
        self.item = item
        self.low = low
        self.high = high


class InList(Expr):
    _fields = ("item", "values")

    def __init__(self, item, values, pos=None):
        super().__init__(pos)
        self.item = item
        self.values = tuple(values)


class And(Expr):
    _fields = ("left", "right")

    def __init__(self, left, right, pos=None):
        super().__init__(pos)
        self.left = left
        self.right = right


class Or(Expr):
    _fields = ("left", "right")

    def __init__(self, left, right, pos=None):
        super().__init__(pos)
        self.left = left
        self.right = right


class Not(Expr):
    _fields = ("operand",)

    def __init__(self, operand, pos=None):
        super().__init__(pos)
        self.operand = operand


class BinaryOp(Expr):
    """Arithmetic in SET expressions (``col + 5`` / ``col - 5``) and in
    aggregate arguments, where ``*`` also appears (``SUM(2 * x)``)."""

    _fields = ("op", "left", "right")

    def __init__(self, op, left, right, pos=None):
        super().__init__(pos)
        self.op = op
        self.left = left
        self.right = right
