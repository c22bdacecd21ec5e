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
  caller provides (each all or nothing by :func:`in_statement`).
* :func:`execute_statement` runs one bound DML/SELECT statement inside a
  transaction: an INSERT / UPDATE / DELETE is one statement — all its
  rows — through the table's write plan
  (``db.indexes.write_plan(table)``, see
  :mod:`repro.views.maintenance`), a SELECT ``db.read`` / ``db.scan``
  plus the relational operators in :mod:`repro.query.executor`. Which
  of ``read`` and
  ``scan`` — and over which key range — is the access path
  :mod:`repro.sql.access` picks from the WHERE clause. The engine's own
  maintenance machinery does the rest — the SQL layer never touches a
  view index directly.
"""

from repro.analysis.static import check_view, explain
from repro.catalog.schema import TableSchema
from repro.common import BindError, SimulatedCrash, UnsupportedSqlError
from repro.query.aggregates import AggregateSpec
from repro.query.executor import group_aggregate, nested_loops_join
from repro.sql import ast
from repro.sql.access import FULL, POINT, plan_access
from repro.sql.binder import (
    Scope,
    bind_options,
    compile_predicate,
    value_fn,
)
from repro.sql.parser import parse, parse_one
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
# DML / SELECT execution
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


def _fetch(db, txn, name, path, for_update=False):
    """The rows of table or view ``name`` that ``path`` selects, in key
    order, through the engine's own read calls — so the lock plans,
    snapshot reads, quarantine and online-build rules are theirs. A path
    whose literals the index cannot order against its keys (a string
    against an integer key) is read as a full scan, where the predicate
    decides row by row; that is settled here, before the engine is
    called, so a ``TypeError`` from inside the engine stays visible."""
    if path.kind == FULL or not path.orders_with(db.index(name).first_key()):
        return db.scan(txn, name)
    if path.kind == POINT:
        row = db.read(txn, name, path.key, for_update=for_update)
        return [] if row is None else [row]
    return db.scan(txn, name, path.key_range)


def _where_plan(where, scope, key_columns):
    """Bind a WHERE (``None`` when absent) and choose its access path
    over an index keyed on ``key_columns``: ``(predicate, path)``."""
    predicate = (
        compile_predicate(where, scope) if where is not None else None
    )
    return predicate, plan_access(where, key_columns, scope.resolve)


def _matching_rows(db, txn, schema, where):
    """Materialize (key, row) pairs matching a WHERE, *before* mutating:
    DML must not observe its own writes mid-statement. A WHERE naming
    the whole primary key reads that one row under a U lock."""
    predicate, path = _where_plan(
        where, Scope({schema.name: schema}), schema.primary_key
    )
    return [
        (schema.key_of(row), row)
        for row in _fetch(db, txn, schema.name, path, for_update=True)
        if predicate is None or predicate(row)
    ]


def _execute_insert(db, txn, stmt):
    schema = _dml_schema(db.catalog, stmt)
    columns = stmt.columns if stmt.columns is not None else schema.columns
    unknown = [c for c in columns if c not in schema.columns]
    if unknown:
        raise BindError(
            f"table {schema.name!r} has no columns {unknown!r}",
            **_pos_kwargs(stmt),
        )
    for values in stmt.rows:
        if len(values) != len(columns):
            raise BindError(
                f"INSERT row has {len(values)} values for "
                f"{len(columns)} columns",
                **_pos_kwargs(stmt),
            )
    rows = [
        {c: lit.value for c, lit in zip(columns, values)}
        for values in stmt.rows
    ]
    return len(db.indexes.write_plan(schema.name).insert(db, txn, rows))


def _execute_update(db, txn, stmt):
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
    items = [
        (key, {column: fn(row) for column, fn in setters})
        for key, row in _matching_rows(db, txn, schema, stmt.where)
    ]
    return len(db.indexes.write_plan(schema.name).update(db, txn, items))


def _execute_delete(db, txn, stmt):
    schema = _dml_schema(db.catalog, stmt)
    keys = [key for key, _ in _matching_rows(db, txn, schema, stmt.where)]
    return len(db.indexes.write_plan(schema.name).delete(db, txn, keys))


def _sorted_rows(keyed_rows):
    """Rows of a grouped result, ordered by group key (repr order when
    keys are not mutually comparable — determinism over beauty)."""
    try:
        ordered = sorted(keyed_rows)
    except TypeError:
        ordered = sorted(keyed_rows, key=lambda kv: tuple(map(repr, kv[0])))
    return [row for _key, row in ordered]


def _select_plan(catalog, stmt):
    """Bind a SELECT's FROM/JOIN/WHERE and choose the access path of
    its (outer) table or view.

    Returns ``(scope, schema, predicate, path, right_schema, on_pairs)``;
    the last two are ``None`` without a join, ``predicate`` without a
    WHERE. A single-table read of an indexed view reads the view's own
    index, keyed on the view's key columns.
    """
    if stmt.join is None and catalog.has_view(stmt.table.name):
        view = catalog.view(stmt.table.name)
        schema = TableSchema(view.name, view.columns, view.key_columns)
        scope, right_schema, on_pairs = Scope({view.name: schema}), None, None
    else:
        scope, schema, right_schema, on_pairs = _select_scope(catalog, stmt)
    predicate, path = _where_plan(stmt.where, scope, schema.primary_key)
    return scope, schema, predicate, path, right_schema, on_pairs


def access_path(catalog, stmt):
    """The access path ``stmt`` (a SELECT, UPDATE or DELETE) would read
    its (outer) table or view by — what ``EXPLAIN`` reports."""
    if isinstance(stmt, ast.Select):
        return _select_plan(catalog, stmt)[3]
    schema = _dml_schema(catalog, stmt)
    return _where_plan(
        stmt.where, Scope({schema.name: schema}), schema.primary_key
    )[1]


def _execute_select(db, txn, stmt):
    scope, schema, predicate, path, right_schema, on_pairs = _select_plan(
        db.catalog, stmt
    )
    rows = _fetch(db, txn, schema.name, path)
    if right_schema is not None:
        rows = list(nested_loops_join(
            rows, db.scan(txn, right_schema.name), on_pairs
        ))
    if predicate is not None:
        rows = [row for row in rows if predicate(row)]
    if stmt.group_by is not None:
        group_by, specs = _grouped_specs(
            stmt, scope, joined=stmt.join is not None
        )
        grouped = group_aggregate(rows, group_by, specs)
        return _sorted_rows(grouped.items())
    plain, aggs, stars = _classify_items(stmt)
    if aggs:
        raise UnsupportedSqlError(
            "aggregates require a GROUP BY clause", **_pos_kwargs(aggs[0])
        )
    columns = []
    rename = {}
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            for column in scope.columns():
                if column not in columns:
                    columns.append(column)
            continue
        column = scope.resolve(item.expr)
        if item.alias is not None:
            rename[column] = item.alias
        if column not in columns:
            columns.append(column)
    out = [row.project(columns) for row in rows]
    if rename:
        out = [row.rename(rename) for row in out]
    return out


def execute_script(db, sql, run):
    """Execute each statement of the SQL script ``sql`` against ``db``;
    returns the last one's result. ``run(fn)`` calls ``fn(txn)`` in the
    transaction the caller means a DML/SELECT statement to have: an
    open one, or an autocommit one. DDL is not logged."""
    result = None
    for stmt in parse(sql):
        if isinstance(stmt, ast.CreateTable):
            result = db.create_table(stmt.name, stmt.columns, stmt.primary_key)
        elif isinstance(stmt, ast.CreateView):
            result = db.create_view(stmt)
        elif isinstance(stmt, ast.CheckView):
            result = check_view(db, stmt.name)
        elif isinstance(stmt, ast.Explain):
            result = explain(db, stmt.statement)
        else:
            result = run(lambda txn: execute_statement(db, txn, stmt))
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


def execute_statement(db, txn, stmt):
    """Execute one bound DML or SELECT statement inside ``txn``.

    Returns the SELECT's rows (a list of :class:`~repro.common.rows.Row`)
    or the DML's affected-row count. DDL statements are handled by
    :func:`execute_script`.
    """
    if isinstance(stmt, ast.Insert):
        return _execute_insert(db, txn, stmt)
    if isinstance(stmt, ast.Update):
        return _execute_update(db, txn, stmt)
    if isinstance(stmt, ast.Delete):
        return _execute_delete(db, txn, stmt)
    if isinstance(stmt, ast.Select):
        return _execute_select(db, txn, stmt)
    raise UnsupportedSqlError(
        f"cannot execute {type(stmt).__name__} here",
        **_pos_kwargs(stmt),
    )
