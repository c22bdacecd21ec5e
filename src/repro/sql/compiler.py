"""The planner: SQL statements to engine operations.

Three entry points:

* :func:`compile_view` turns a ``CREATE [UNIQUE] INDEXED VIEW``
  statement into the matching
  :class:`~repro.views.definition.ViewDefinition` — the shape decides
  the maintenance machinery. The mapping is the whole point of the
  dialect:

  ======================  =============================================
  statement shape          compiled plan
  ======================  =============================================
  SELECT cols              ProjectionView (X-lock row maintenance)
  ... GROUP BY             AggregateView  (COUNT/SUM -> escrow counters,
                           MIN/MAX -> exclusive extremes)
  ... JOIN                 JoinView       (fk-join, index-driven)
  ... JOIN + GROUP BY      JoinAggregateView (escrow counters only)
  ======================  =============================================

* :func:`execute_script` is the one statement dispatcher behind
  ``Database.execute`` and ``Session.execute``: DDL, ``CHECK VIEW`` and
  ``EXPLAIN`` outside any transaction, DML and SELECT in the one the
  caller provides (each all or nothing by :func:`in_statement`). It
  keeps one prepared plan per statement *shape* (``docs/SQL.md`` §2),
  so a text differing from an earlier one only in its literal values
  is neither parsed nor bound again.
* :func:`prepare` binds one DML/SELECT statement into a plan whose
  ``run(txn, params)`` executes it with one set of literal values: an
  INSERT / UPDATE / DELETE is one statement — all its rows — through
  the table's write plan (``db.indexes.write_plan(table)``, see
  :mod:`repro.views.maintenance`), a SELECT ``db.read`` / ``db.scan``
  plus the relational operators in :mod:`repro.query.executor`. Which
  of ``read`` and ``scan`` — and over which key range — is the access
  path :mod:`repro.sql.access` picks from the WHERE clause. The
  engine's own maintenance machinery does the rest — the SQL layer
  never touches a view index directly.
"""

import operator

from repro.analysis.static import check_view, explain
from repro.catalog.schema import TableSchema
from repro.common import BindError, Row, SimulatedCrash, UnsupportedSqlError
from repro.query.aggregates import AggregateSpec
from repro.query.executor import group_aggregate, nested_loops_join
from repro.sql import ast, parser
from repro.sql.access import FULL, POINT, access_shape, plan_access
from repro.sql.binder import (
    Scope,
    bind_options,
    compile_predicate,
    literal_value,
    predicate_fn,
    value_fn,
)
from repro.sql.lexer import shape_of
from repro.sql.parser import parse_one
from repro.txn.transaction import TxnState
from repro.views.definition import (
    AggregateView,
    JoinAggregateView,
    JoinView,
    ProjectionView,
)


def _pos_kwargs(node):
    if node is None or node.pos is None:
        return {}
    return {"line": node.pos[0], "column": node.pos[1]}


def _base_schema(catalog, table_ref):
    """Resolve a FROM/JOIN table reference to a base-table schema."""
    name = table_ref.name
    if catalog.has_table(name):
        return catalog.table(name)
    if catalog.has_view(name):
        raise UnsupportedSqlError(
            f"{name!r} is a view; views over views are not supported",
            **_pos_kwargs(table_ref),
        )
    raise BindError(f"no table named {name!r}", **_pos_kwargs(table_ref))


def _side_of(ref, left_schema, right_schema):
    """Which join side a ColumnRef in an ON pair belongs to."""
    if ref.qualifier is not None:
        if ref.qualifier == left_schema.name:
            side, schema = "left", left_schema
        elif ref.qualifier == right_schema.name:
            side, schema = "right", right_schema
        else:
            raise BindError(
                f"unknown table {ref.qualifier!r} in ON clause",
                **_pos_kwargs(ref),
            )
        if ref.name not in schema.columns:
            raise BindError(
                f"table {schema.name!r} has no column {ref.name!r}",
                **_pos_kwargs(ref),
            )
        return side
    in_left = ref.name in left_schema.columns
    in_right = ref.name in right_schema.columns
    if in_left and in_right:
        raise BindError(
            f"column {ref.name!r} in ON clause is ambiguous; qualify it",
            **_pos_kwargs(ref),
        )
    if in_left:
        return "left"
    if in_right:
        return "right"
    raise BindError(
        f"unknown column {ref.name!r} in ON clause", **_pos_kwargs(ref)
    )


def _normalize_on(join, left_schema, right_schema):
    """Orient ON equalities into (left_col, right_col) pairs."""
    pairs = []
    for a, b in join.on:
        side_a = _side_of(a, left_schema, right_schema)
        side_b = _side_of(b, left_schema, right_schema)
        if side_a == side_b:
            raise BindError(
                "each ON equality must compare a left-table column with "
                "a right-table column",
                **_pos_kwargs(a),
            )
        if side_a == "left":
            pairs.append((a.name, b.name))
        else:
            pairs.append((b.name, a.name))
    return tuple(pairs)


def _select_scope(catalog, select):
    """Build the Scope (and join plumbing) of a SELECT over base tables.

    Returns ``(scope, left_schema, right_schema, on_pairs)`` where the
    right-side entries are ``None`` for single-table statements.
    """
    left_schema = _base_schema(catalog, select.table)
    if select.join is None:
        return Scope({left_schema.name: left_schema}), left_schema, None, None
    right_schema = _base_schema(catalog, select.join.table)
    if right_schema.name == left_schema.name:
        raise UnsupportedSqlError(
            "self-joins are not supported",
            **_pos_kwargs(select.join.table),
        )
    on_pairs = _normalize_on(select.join, left_schema, right_schema)
    forced_equal = {lc for lc, rc in on_pairs if lc == rc}
    scope = Scope(
        {left_schema.name: left_schema, right_schema.name: right_schema},
        forced_equal=forced_equal,
    )
    return scope, left_schema, right_schema, on_pairs


def _classify_items(select):
    """Split select items into (plain, aggregate, star) buckets."""
    plain, aggs, stars = [], [], []
    for item in select.items:
        if isinstance(item.expr, ast.FuncCall):
            aggs.append(item)
        elif isinstance(item.expr, ast.Star):
            stars.append(item)
        else:
            plain.append(item)
    return plain, aggs, stars


def _aggregate_spec(item, scope, joined):
    """Turn one ``FUNC(...) AS alias`` select item into an
    AggregateSpec.

    Escrow eligibility is decided by the commutativity prover
    (:mod:`repro.analysis.static.prover`), not by pattern-matching
    function names: SUM arguments are normalized to a linear form, so
    ``SUM(a - b)`` and ``SUM(-x)`` are both escrow-eligible and
    algebraically equal spellings compile to one canonical spec. An
    argument with no linear form is refused with diagnostic ``SA002``.
    """
    from repro.analysis.static.prover import NonLinearError, linearize

    call = item.expr
    if item.alias is None:
        raise BindError(
            f"{call.func}(...) needs an AS alias to name its view column",
            **_pos_kwargs(call),
        )
    if call.func == "COUNT":
        if not isinstance(call.arg, ast.Star):
            raise UnsupportedSqlError(
                "only COUNT(*) is supported (COUNT(col) is not)",
                **_pos_kwargs(call),
            )
        return AggregateSpec.count(item.alias)
    if call.func == "SUM":
        try:
            form = linearize(call.arg, resolve=scope.resolve)
        except NonLinearError as exc:
            pos_kwargs = _pos_kwargs(call)
            if exc.pos is not None:
                pos_kwargs = {"line": exc.pos[0], "column": exc.pos[1]}
            raise UnsupportedSqlError(
                f"SUM argument is not escrow-eligible [SA002]: "
                f"{exc.detail} — the per-row contribution must be "
                f"linear in the row for deltas to commute",
                **pos_kwargs,
            ) from exc
        return AggregateSpec.sum_expr(item.alias, form)
    if call.func in ("MIN", "MAX"):
        if not isinstance(call.arg, ast.ColumnRef):
            raise UnsupportedSqlError(
                f"{call.func} needs a column argument",
                **_pos_kwargs(call),
            )
        if joined:
            raise UnsupportedSqlError(
                f"{call.func} is not supported over joins: extremes are "
                "not delta-maintainable, so join-aggregate views allow "
                "only the escrow-eligible COUNT/SUM",
                **_pos_kwargs(call),
            )
        source = scope.resolve(call.arg)
        if call.func == "MIN":
            return AggregateSpec.min_of(item.alias, source)
        return AggregateSpec.max_of(item.alias, source)
    raise UnsupportedSqlError(
        f"unknown aggregate {call.func!r}", **_pos_kwargs(call)
    )


def _grouped_specs(select, scope, joined):
    """Aggregate specs + resolved group-by columns of a grouped SELECT."""
    plain, aggs, stars = _classify_items(select)
    if stars:
        raise UnsupportedSqlError(
            "SELECT * cannot be combined with GROUP BY; list the "
            "group-by columns explicitly",
            **_pos_kwargs(stars[0]),
        )
    if not aggs:
        raise UnsupportedSqlError(
            "GROUP BY without aggregates has no use here; add COUNT(*)",
            **_pos_kwargs(select),
        )
    group_by = tuple(scope.resolve(ref) for ref in select.group_by)
    plain_cols = []
    for item in plain:
        if item.alias is not None:
            raise UnsupportedSqlError(
                "group-by columns cannot be aliased (view columns keep "
                "their base names)",
                **_pos_kwargs(item),
            )
        plain_cols.append(scope.resolve(item.expr))
    if set(plain_cols) != set(group_by) or len(plain_cols) != len(group_by):
        raise BindError(
            f"the non-aggregate select items {plain_cols!r} must be "
            f"exactly the GROUP BY columns {list(group_by)!r}",
            **_pos_kwargs(select),
        )
    specs = tuple(_aggregate_spec(item, scope, joined) for item in aggs)
    if not any(s.func.name == "COUNT" for s in specs):
        raise UnsupportedSqlError(
            "an aggregate view requires a COUNT(*) AS ... column — "
            "maintenance needs it to detect empty groups",
            **_pos_kwargs(select),
        )
    return group_by, specs


def _plain_columns(select, scope):
    """The projected columns of an ungrouped SELECT used as a view body
    (aliases are refused: view maintenance projects base columns by
    name)."""
    plain, aggs, stars = _classify_items(select)
    if aggs:
        raise UnsupportedSqlError(
            "aggregates require a GROUP BY clause",
            **_pos_kwargs(aggs[0]),
        )
    columns = []
    for item in select.items:
        if isinstance(item.expr, ast.Star):
            for column in scope.columns():
                if column not in columns:
                    columns.append(column)
            continue
        if item.alias is not None:
            raise UnsupportedSqlError(
                "column aliases are not supported in view definitions "
                "(maintenance projects base columns by name)",
                **_pos_kwargs(item),
            )
        column = scope.resolve(item.expr)
        if column in columns:
            raise BindError(
                f"column {column!r} projected twice", **_pos_kwargs(item)
            )
        columns.append(column)
    return tuple(columns)


def compile_view(stmt_or_sql, catalog):
    """Compile a ``CREATE [UNIQUE] INDEXED VIEW`` statement (text or
    AST) into a :class:`~repro.views.definition.ViewDefinition`.

    The returned definition is not yet registered; pass it to
    :meth:`Database.create_view`. The statement's ``unique`` flag and
    WITH options are the caller's to honor (``Database.execute`` does).
    """
    stmt = stmt_or_sql
    if isinstance(stmt, str):
        stmt = parse_one(stmt)
    if not isinstance(stmt, ast.CreateView):
        raise UnsupportedSqlError(
            "compile_view needs a CREATE INDEXED VIEW statement, got "
            f"{type(stmt).__name__}",
            **_pos_kwargs(stmt if isinstance(stmt, ast.Node) else None),
        )
    bind_options(stmt)  # fail early on unknown WITH options
    select = stmt.select
    scope, left_schema, right_schema, on_pairs = _select_scope(
        catalog, select
    )
    where = (
        compile_predicate(select.where, scope)
        if select.where is not None else None
    )
    joined = right_schema is not None
    if select.group_by is not None:
        group_by, specs = _grouped_specs(select, scope, joined)
        if joined:
            return JoinAggregateView(
                stmt.name,
                left_schema.name,
                right_schema.name,
                on_pairs,
                group_by,
                specs,
                where=where,
                left_pk=left_schema.primary_key,
                right_pk=right_schema.primary_key,
            )
        return AggregateView(
            stmt.name, left_schema.name, group_by, specs, where=where
        )
    columns = _plain_columns(select, scope)
    if joined:
        key_columns = left_schema.primary_key + tuple(
            c for c in right_schema.primary_key
            if c not in left_schema.primary_key
        )
        missing = [c for c in key_columns if c not in columns]
        if missing:
            raise BindError(
                f"a join view must project both primary keys; missing "
                f"{missing!r}",
                **_pos_kwargs(select),
            )
        return JoinView(
            stmt.name,
            left_schema.name,
            right_schema.name,
            on_pairs,
            columns=columns,
            where=where,
            left_pk=left_schema.primary_key,
            right_pk=right_schema.primary_key,
        )
    missing = [c for c in left_schema.primary_key if c not in columns]
    if missing:
        raise BindError(
            f"a projection view must project the base primary key; "
            f"missing {missing!r}",
            **_pos_kwargs(select),
        )
    return ProjectionView(
        stmt.name,
        left_schema.name,
        columns,
        where=where,
        base_pk=left_schema.primary_key,
    )


# ---------------------------------------------------------------------
# DML / SELECT: prepare once per statement shape, run with its values
# ---------------------------------------------------------------------


def _dml_schema(catalog, stmt):
    if not catalog.has_table(stmt.table):
        if catalog.has_view(stmt.table):
            raise UnsupportedSqlError(
                f"{stmt.table!r} is a view; views are maintained by the "
                "engine, not written directly",
                **_pos_kwargs(stmt),
            )
        raise BindError(
            f"no table named {stmt.table!r}", **_pos_kwargs(stmt)
        )
    return catalog.table(stmt.table)


class _Read:
    """How a statement reads one table or view: the access path its
    WHERE allows over the index keyed on ``key_columns``, and the WHERE
    itself, re-applied to every row that comes back."""

    __slots__ = ("name", "path", "where")

    def __init__(self, name, where, key_columns, scope):
        self.name = name
        self.path = access_shape(where, key_columns, scope.resolve)
        self.where = predicate_fn(where, scope) if where is not None else None

    def fetch(self, db, txn, params, for_update=False):
        """The rows this run's path selects, in key order, through the
        engine's own read calls — so the lock plans, snapshot reads,
        quarantine and online-build rules are theirs. A path whose
        literals the index cannot order against its keys (a string
        against an integer key) is read as a full scan, where the
        predicate decides row by row; that is settled here, before the
        engine is called, so a ``TypeError`` from inside the engine
        stays visible."""
        name, path = self.name, self.path.bind(params)
        if path.kind == FULL or not path.orders_with(
            db.index(name).first_key()
        ):
            return db.scan(txn, name)
        if path.kind == POINT:
            row = db.read(txn, name, path.key, for_update=for_update)
            return [] if row is None else [row]
        return db.scan(txn, name, path.key_range)

    def filter(self, rows, params):
        if self.where is None:
            return rows
        predicate = self.where(params)
        return [row for row in rows if predicate(row)]

    def matching(self, db, txn, schema, params):
        """``(key, row)`` pairs of the rows a DML statement changes,
        materialized *before* it mutates (a statement must not observe
        its own writes); a point read takes U."""
        rows = self.filter(self.fetch(db, txn, params, for_update=True), params)
        return [(schema.key_of(row), row) for row in rows]


def _getter(literal):
    """``params -> value`` of one INSERT literal."""
    if literal.slot is None or literal.negated:
        return lambda params: literal_value(literal, params)
    return operator.itemgetter(literal.slot)


def _unique(named, what):
    """Refuse a name listed twice — the later one would silently win —
    at the node of its second listing; ``named`` is ``(name, node)``
    pairs."""
    seen = set()
    for name, node in named:
        if name in seen:
            raise BindError(f"{what} {name!r} twice", **_pos_kwargs(node))
        seen.add(name)


class PreparedInsert:
    """``INSERT INTO t (..) VALUES ..`` bound: each row's columns and
    the slot each value reads."""

    __slots__ = ("_db", "_table", "_rows")

    def __init__(self, db, stmt):
        schema = _dml_schema(db.catalog, stmt)
        columns = stmt.columns if stmt.columns is not None else schema.columns
        unknown = [c for c in columns if c not in schema.columns]
        if unknown:
            raise BindError(
                f"table {schema.name!r} has no columns {unknown!r}",
                **_pos_kwargs(stmt),
            )
        _unique(((c, stmt) for c in columns), "INSERT names column")
        for values in stmt.rows:
            if len(values) != len(columns):
                raise BindError(
                    f"INSERT row has {len(values)} values for "
                    f"{len(columns)} columns",
                    **_pos_kwargs(stmt),
                )
        self._db = db
        self._table = schema.name
        self._rows = tuple(
            tuple(zip(columns, map(_getter, values))) for values in stmt.rows
        )

    def run(self, txn, params):
        rows = [{c: get(params) for c, get in row} for row in self._rows]
        plan = self._db.indexes.write_plan(self._table)
        return len(plan.insert(self._db, txn, rows))


class PreparedUpdate:
    """``UPDATE t SET .. [WHERE ..]`` bound: the read and the setters."""

    __slots__ = ("_db", "_schema", "_read", "_setters")

    def __init__(self, db, stmt):
        schema = _dml_schema(db.catalog, stmt)
        scope = Scope({schema.name: schema})
        setters = []
        for column, expr in stmt.sets:
            if column not in schema.columns:
                raise BindError(
                    f"table {schema.name!r} has no column {column!r}",
                    **_pos_kwargs(stmt),
                )
            setters.append((column, value_fn(expr, scope)))
        _unique(stmt.sets, "UPDATE sets column")
        self._db = db
        self._schema = schema
        self._read = _Read(schema.name, stmt.where, schema.primary_key, scope)
        self._setters = tuple(setters)

    def run(self, txn, params):
        db = self._db
        setters = [(column, make(params)) for column, make in self._setters]
        items = [
            (key, {column: fn(row) for column, fn in setters})
            for key, row in self._read.matching(db, txn, self._schema, params)
        ]
        plan = db.indexes.write_plan(self._schema.name)
        return len(plan.update(db, txn, items))


class PreparedDelete:
    """``DELETE FROM t [WHERE ..]`` bound: the read."""

    __slots__ = ("_db", "_schema", "_read")

    def __init__(self, db, stmt):
        schema = _dml_schema(db.catalog, stmt)
        self._db = db
        self._schema = schema
        self._read = _Read(
            schema.name, stmt.where, schema.primary_key,
            Scope({schema.name: schema}),
        )

    def run(self, txn, params):
        db = self._db
        keys = [
            key for key, _ in self._read.matching(db, txn, self._schema, params)
        ]
        plan = db.indexes.write_plan(self._schema.name)
        return len(plan.delete(db, txn, keys))


def _sorted_rows(keyed_rows):
    """Rows of a grouped result, ordered by group key (repr order when
    keys are not mutually comparable — determinism over beauty)."""
    try:
        ordered = sorted(keyed_rows)
    except TypeError:
        ordered = sorted(keyed_rows, key=lambda kv: tuple(map(repr, kv[0])))
    return [row for _key, row in ordered]


def _select_source(catalog, stmt):
    """Bind a SELECT's FROM/JOIN: ``(scope, schema, right_schema,
    on_pairs)``, the last two ``None`` without a join. A single-table
    read of an indexed view reads the view's own index, keyed on the
    view's key columns."""
    if stmt.join is None and catalog.has_view(stmt.table.name):
        view = catalog.view(stmt.table.name)
        schema = TableSchema(view.name, view.columns, view.key_columns)
        return Scope({view.name: schema}), schema, None, None
    return _select_scope(catalog, stmt)


def _output_columns(stmt, scope):
    """``(column, name)`` pairs of an ungrouped SELECT's result, in
    order; an item repeating an earlier pair adds nothing (``*, a``),
    two different columns under one name are refused."""
    pairs = []
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            wanted = [(column, column) for column in scope.columns()]
        else:
            column = scope.resolve(item.expr)
            wanted = [(column, item.alias or column)]
        for pair in wanted:
            if pair in pairs:
                continue
            if any(name == pair[1] for _, name in pairs):
                raise BindError(
                    f"two select items are named {pair[1]!r}",
                    **_pos_kwargs(item),
                )
            pairs.append(pair)
    return tuple(pairs)


class PreparedSelect:
    """``SELECT ..`` bound: the read of its (outer) table or view, the
    join, then the grouping or the projection."""

    __slots__ = ("_db", "_read", "_join", "_group", "_columns", "_names")

    def __init__(self, db, stmt):
        scope, schema, right_schema, on_pairs = _select_source(
            db.catalog, stmt
        )
        self._db = db
        self._read = _Read(schema.name, stmt.where, schema.primary_key, scope)
        self._join = (
            None if right_schema is None else (right_schema.name, on_pairs)
        )
        self._group = self._columns = self._names = None
        if stmt.group_by is not None:
            self._group = _grouped_specs(
                stmt, scope, joined=stmt.join is not None
            )
            return
        _plain, aggs, _stars = _classify_items(stmt)
        if aggs:
            raise UnsupportedSqlError(
                "aggregates require a GROUP BY clause", **_pos_kwargs(aggs[0])
            )
        pairs = _output_columns(stmt, scope)
        self._columns = tuple(column for column, _ in pairs)
        if any(column != name for column, name in pairs):
            self._names = tuple(name for _, name in pairs)

    def run(self, txn, params):
        db = self._db
        rows = self._read.fetch(db, txn, params)
        if self._join is not None:
            right, on_pairs = self._join
            rows = list(nested_loops_join(rows, db.scan(txn, right), on_pairs))
        rows = self._read.filter(rows, params)
        if self._group is not None:
            group_by, specs = self._group
            return _sorted_rows(group_aggregate(rows, group_by, specs).items())
        columns, names = self._columns, self._names
        if names is None:
            return [row.project(columns) for row in rows]
        return [
            Row({name: row[column] for column, name in zip(columns, names)})
            for row in rows
        ]


_PREPARE = {
    ast.Insert: PreparedInsert,
    ast.Update: PreparedUpdate,
    ast.Delete: PreparedDelete,
    ast.Select: PreparedSelect,
}


def prepare(db, stmt):
    """Bind one DML or SELECT statement against ``db``'s catalog into an
    immutable plan whose ``run(txn, params)`` executes it with the
    literal values ``params`` (slot order) — the only way such a
    statement runs. The access path's kind, and which slots form its
    key or bounds, are fixed here; the key itself is built per run."""
    cls = _PREPARE.get(type(stmt))
    if cls is None:
        raise UnsupportedSqlError(
            f"cannot execute {type(stmt).__name__} here",
            **_pos_kwargs(stmt),
        )
    return cls(db, stmt)


def access_path(catalog, stmt):
    """The access path ``stmt`` (a SELECT, UPDATE or DELETE) would read
    its (outer) table or view by, literals as written — what ``EXPLAIN``
    reports."""
    if isinstance(stmt, ast.Select):
        scope, schema, _, _ = _select_source(catalog, stmt)
    else:
        schema = _dml_schema(catalog, stmt)
        scope = Scope({schema.name: schema})
    return plan_access(stmt.where, schema.primary_key, scope.resolve)


def _bakes_literals(stmt):
    """Does ``stmt``'s plan hold some literal's value instead of its
    slot? A SUM argument is normalized to a linear form when the plan
    is made, coefficients and all."""
    def has_slot(expr):
        if isinstance(expr, ast.Literal):
            return expr.slot is not None
        if isinstance(expr, ast.BinaryOp):
            return has_slot(expr.left) or has_slot(expr.right)
        return False

    return isinstance(stmt, ast.Select) and any(
        isinstance(item.expr, ast.FuncCall) and has_slot(item.expr.arg)
        for item in stmt.items
    )


#: the first word of a text that may keep a prepared plan
_KEPT_VERBS = frozenset({"SELECT", "INSERT", "UPDATE", "DELETE"})


def execute_script(db, sql, run, params=()):
    """Execute each statement of the SQL script ``sql`` against ``db``;
    returns the last one's result. The ``i``-th ``?`` placeholder stands
    for ``params[i]``. ``run(fn)`` calls ``fn(txn)`` in the transaction
    the caller means a DML/SELECT statement to have: an open one, or an
    autocommit one. DDL is not logged.

    A text whose shape (:func:`~repro.sql.lexer.shape_of`: the text with
    its literals lifted, keyed with their types) has a prepared plan in
    ``db.indexes`` runs it with the lifted values and is never parsed.
    Otherwise it is parsed; a text of one DML/SELECT statement leaves
    its plan there for the next text of its shape (its slots hold the
    lifted values: one literal grammar makes both). A text that fails
    to parse, bind or prepare leaves nothing. DDL, EXPLAIN, CHECK VIEW, a script of several
    statements and a text that opens with a comment keep no plan, so
    they skip the lift and the lookup."""
    key = None
    if sql.lstrip()[:6].upper() in _KEPT_VERBS:
        shape, values = shape_of(sql, params)
        if shape is not None and ";" not in shape.rstrip("; \t\r\n"):
            key = (shape, tuple(map(type, values)))
            plan = db.indexes.prepared(key)
            if plan is not None:
                return run(lambda txn: plan.run(txn, values))
    statements, literals = parser.parse_literals(sql, params)
    result = None
    for stmt in statements:
        if isinstance(stmt, ast.CreateTable):
            result = db.create_table(stmt.name, stmt.columns, stmt.primary_key)
        elif isinstance(stmt, ast.CreateView):
            result = db.create_view(stmt)
        elif isinstance(stmt, ast.CheckView):
            result = check_view(db, stmt.name)
        elif isinstance(stmt, ast.Explain):
            result = explain(db, stmt.statement)
        else:
            plan = prepare(db, stmt)
            if (key is not None and len(statements) == 1
                    and not _bakes_literals(stmt)):
                db.indexes.keep_prepared(key, plan)
            result = run(lambda txn: plan.run(txn, literals))
    return result


def in_statement(db, txn, fn):
    """``fn(txn)``: one SQL statement inside the open ``txn``, all or
    nothing — a failure rolls back to a savepoint taken first and the
    transaction stays usable. (Autocommit needs none: it aborts.)"""
    savepoint = db.savepoint(txn)
    try:
        return fn(txn)
    except SimulatedCrash:
        raise
    except BaseException:
        if txn.state is TxnState.ACTIVE:
            db.rollback_to(txn, savepoint)
        raise
