"""Name resolution against the catalog.

The binder sits between the parser and the planner: it checks every
:class:`~repro.sql.ast.ColumnRef` against the tables in scope, once, and
turns WHERE and SET trees into closures over a run's literal values
(:func:`predicate_fn`, :func:`value_fn`), so one bound statement runs
with any values of its shape. A view definition's WHERE becomes a
:class:`CompiledPredicate` — an ordinary
:class:`~repro.query.predicates.Predicate` with its literals as written
that also remembers its AST, so a SQL-born view definition can be
rendered back to SQL (see :mod:`repro.sql.render`).

All failures raise :class:`~repro.common.BindError` carrying the
position of the offending token; requests outside the engine's
deliberate envelope raise
:class:`~repro.common.UnsupportedSqlError`.
"""

from repro.common import BindError, UnsupportedSqlError
from repro.query.predicates import Predicate
from repro.sql import ast
from repro.sql.render import render_expr


class CompiledPredicate(Predicate):
    """A predicate compiled from a WHERE tree.

    Behaves exactly like a hand-written predicate (the maintainers call
    it on rows); keeps the source AST so :func:`repro.sql.render.render_view`
    can print the clause as written.
    """

    __slots__ = ("ast",)

    def __init__(self, fn, where_ast):
        super().__init__(fn, render_expr(where_ast))
        self.ast = where_ast


def _pos_kwargs(node):
    if node.pos is None:
        return {}
    return {"line": node.pos[0], "column": node.pos[1]}


class Scope:
    """The tables a statement's column references resolve against.

    ``schemas`` is an ordered mapping of table name -> TableSchema (one
    entry for single-table statements, two for joins). A column name
    present in several tables is *ambiguous* — even when qualified,
    because joined rows are merged by bare column name — unless the join
    forces the two columns equal (an ``ON a.x = b.x`` pair of the same
    name).
    """

    def __init__(self, schemas, forced_equal=()):
        self._schemas = dict(schemas)
        counts = {}
        for schema in self._schemas.values():
            for column in schema.columns:
                counts[column] = counts.get(column, 0) + 1
        self._ambiguous = {
            c for c, n in counts.items() if n > 1
        } - set(forced_equal)

    def tables(self):
        return list(self._schemas)

    def columns(self):
        """All resolvable bare column names, in table/column order."""
        seen = []
        for schema in self._schemas.values():
            for column in schema.columns:
                if column not in seen:
                    seen.append(column)
        return seen

    def resolve(self, ref):
        """Resolve a ColumnRef to its bare column name (joined rows are
        keyed by bare names), or raise BindError."""
        if ref.qualifier is not None:
            schema = self._schemas.get(ref.qualifier)
            if schema is None:
                raise BindError(
                    f"unknown table {ref.qualifier!r} in column reference",
                    **_pos_kwargs(ref),
                )
            if ref.name not in schema.columns:
                raise BindError(
                    f"table {ref.qualifier!r} has no column {ref.name!r}",
                    **_pos_kwargs(ref),
                )
            if ref.name in self._ambiguous:
                raise BindError(
                    f"column {ref.name!r} exists in more than one table; "
                    "joined rows merge columns by name, so the reference "
                    "is ambiguous",
                    **_pos_kwargs(ref),
                )
            return ref.name
        owners = [
            name for name, schema in self._schemas.items()
            if ref.name in schema.columns
        ]
        if not owners:
            raise BindError(
                f"unknown column {ref.name!r}", **_pos_kwargs(ref)
            )
        if len(owners) > 1 and ref.name in self._ambiguous:
            raise BindError(
                f"column {ref.name!r} is ambiguous (in tables {owners!r})",
                **_pos_kwargs(ref),
            )
        return ref.name


def compile_predicate(expr, scope):
    """Compile a WHERE tree into a :class:`CompiledPredicate`, its
    literals as written (a view definition's)."""
    return CompiledPredicate(predicate_fn(expr, scope)(None), expr)


def literal_value(literal, params):
    """The value ``literal`` has in a run with ``params`` (``None``: the
    value this parse saw)."""
    if params is None or literal.slot is None:
        return literal.value
    value = params[literal.slot]
    return -value if literal.negated else value


def predicate_fn(expr, scope):
    """Bind a boolean expression: names are resolved now, once, and the
    result is ``make(params)``, which builds the row -> bool closure of
    one run with its literals read from ``params``."""
    if isinstance(expr, (ast.And, ast.Or)):
        left = predicate_fn(expr.left, scope)
        right = predicate_fn(expr.right, scope)
        both = isinstance(expr, ast.And)

        def make(params):
            lf, rf = left(params), right(params)
            if both:
                return lambda row: lf(row) and rf(row)
            return lambda row: lf(row) or rf(row)
        return make
    if isinstance(expr, ast.Not):
        operand = predicate_fn(expr.operand, scope)

        def make(params):
            of = operand(params)
            return lambda row: not of(row)
        return make
    if isinstance(expr, ast.Comparison):
        left = value_fn(expr.left, scope)
        right = value_fn(expr.right, scope)
        compare = _COMPARISONS.get(expr.op)
        if compare is None:
            raise BindError(
                f"unknown comparison operator {expr.op!r}",
                **_pos_kwargs(expr),
            )
        return lambda params: compare(left(params), right(params))
    if isinstance(expr, ast.Between):
        item = value_fn(expr.item, scope)
        low = value_fn(expr.low, scope)
        high = value_fn(expr.high, scope)

        def make(params):
            itf, lf, hf = item(params), low(params), high(params)
            return lambda row: lf(row) <= itf(row) <= hf(row)
        return make
    if isinstance(expr, ast.InList):
        item = value_fn(expr.item, scope)

        def make(params):
            itf = item(params)
            values = frozenset(
                literal_value(v, params) for v in expr.values
            )
            return lambda row: itf(row) in values
        return make
    raise BindError(
        f"expected a boolean expression, got {type(expr).__name__}",
        **_pos_kwargs(expr),
    )


#: comparison -> (left row fn, right row fn) -> the row -> bool fn
_COMPARISONS = {
    "=": lambda lf, rf: lambda row: lf(row) == rf(row),
    "<>": lambda lf, rf: lambda row: lf(row) != rf(row),
    "<": lambda lf, rf: lambda row: lf(row) < rf(row),
    "<=": lambda lf, rf: lambda row: lf(row) <= rf(row),
    ">": lambda lf, rf: lambda row: lf(row) > rf(row),
    ">=": lambda lf, rf: lambda row: lf(row) >= rf(row),
}

#: SET arithmetic -> (left row fn, right row fn) -> the row -> value fn
_ARITHMETIC = {
    "+": lambda lf, rf: lambda row: lf(row) + rf(row),
    "-": lambda lf, rf: lambda row: lf(row) - rf(row),
}


def value_fn(expr, scope):
    """Bind a scalar operand (a column reference, a literal, or SET
    arithmetic over them): ``make(params)``, which builds the row ->
    value closure of one run — a literal reads its slot of ``params``,
    not the value it was prepared from."""
    if isinstance(expr, ast.Literal):
        def make(params):
            value = literal_value(expr, params)
            return lambda row: value
        return make
    if isinstance(expr, ast.ColumnRef):
        column = scope.resolve(expr)

        def read(row):
            return row[column]
        return lambda params: read
    if isinstance(expr, ast.BinaryOp):
        left = value_fn(expr.left, scope)
        right = value_fn(expr.right, scope)
        combine = _ARITHMETIC.get(expr.op)
        if combine is None:
            raise UnsupportedSqlError(
                f"arithmetic operator {expr.op!r} is not supported",
                **_pos_kwargs(expr),
            )
        return lambda params: combine(left(params), right(params))
    raise BindError(
        f"expected a column or literal, got {type(expr).__name__}",
        **_pos_kwargs(expr),
    )


#: WITH (...) options the dialect understands on CREATE INDEXED VIEW.
VIEW_OPTIONS = frozenset({"online", "deferred"})


def bind_options(stmt):
    """Validate a CreateView's WITH options; returns a plain dict with
    booleans for ``online`` / ``deferred``."""
    options = {}
    for name, value in stmt.options.items():
        if name not in VIEW_OPTIONS:
            raise UnsupportedSqlError(
                f"unknown view option {name!r} (supported: "
                f"{', '.join(sorted(VIEW_OPTIONS))})",
                **_pos_kwargs(stmt),
            )
        if not isinstance(value, bool):
            raise UnsupportedSqlError(
                f"view option {name!r} takes TRUE or FALSE, got {value!r}",
                **_pos_kwargs(stmt),
            )
        options[name] = value
    return options
