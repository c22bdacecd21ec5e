"""Indexed view definitions.

Three view shapes cover the paper's territory:

* :class:`AggregateView` — ``SELECT g1.., COUNT(*), SUM(x).. FROM base
  [WHERE p] GROUP BY g1..`` stored in a B-tree keyed by the group-by
  columns. This is *the* interesting case: many base rows collapse into
  one view row, concentrating write traffic — the reason escrow locking
  exists. A COUNT(*) aggregate is mandatory (as in SQL Server), because
  maintenance needs it to detect empty groups.

* :class:`JoinView` — ``SELECT .. FROM left JOIN right ON left.fk =
  right.pk [WHERE p]`` keyed by (left pk, right pk). The right side must
  be joined on its primary key (the common foreign-key join); this keeps
  maintenance index-driven rather than scan-driven.

* :class:`ProjectionView` — ``SELECT cols FROM base WHERE p`` keyed by the
  base primary key; the simplest case, included as the baseline shape and
  for predicate enter/leave testing. A :class:`SecondaryIndex` is a
  projection keyed by other columns.

A definition is the one place that knows its kind: what the view
contains (:meth:`ViewDefinition.recompute`, a call into the reference
executor), which indexes it owns besides its own
(:attr:`ViewDefinition.aux_indexes`) and how their entries derive from
a view or base row. :func:`expected_index_contents` puts the two
together; building, refreshing, rebuilding, degraded reads and checking
a view all call it and differ only in the rows they hand it. The delta
programs live in the maintainers.
"""

from repro.common import CatalogError
from repro.query import executor
from repro.query.aggregates import AggFunc


class AuxIndex:
    """An index a view owns besides its own: its name, its key columns,
    and the table whose rows it indexes (``None``: the view's own rows,
    stored whole; a base table's rows are stored as their key columns)."""

    __slots__ = ("name", "key_columns", "source")

    def __init__(self, name, key_columns, source=None):
        self.name = name
        self.key_columns = tuple(key_columns)
        self.source = source

    def entry(self, row):
        """``(key, stored row)`` of the entry a source row derives."""
        key = row.key(self.key_columns)
        if self.source is None:
            return key, row
        return key, row.project(self.key_columns)


def expected_index_contents(view, rows_of):
    """Contents of every index ``view`` owns, computed from scratch:
    ``{index_name: {key: row}}``, the view's own index first.

    ``rows_of(table)`` yields the base rows to compute over — live rows,
    rows as of a timestamp, rows read under a table S lock; each table
    is asked for once."""
    fetched = {}

    def rows(table):
        if table not in fetched:
            fetched[table] = list(rows_of(table))
        return fetched[table]

    main = view.recompute(rows)
    contents = {view.name: main}
    for aux in view.aux_indexes:
        source = main.values() if aux.source is None else rows(aux.source)
        contents[aux.name] = dict(aux.entry(row) for row in source)
    return contents


class ViewDefinition:
    """Common shape of a view definition."""

    kind = "abstract"
    #: the COUNT(*) column of an aggregate-shaped view (a row whose
    #: count is zero is logically deleted); ``None`` for other kinds
    count_column = None
    #: :class:`AuxIndex` descriptions of the indexes owned besides the
    #: view's own
    aux_indexes = ()
    #: maintained by every statement whatever the maintenance mode, and
    #: even while quarantined — only its own build pauses it (a unique
    #: constraint cannot be checked later)
    always_maintained = False

    def __init__(self, name, key_columns, columns, where=None):
        self.name = name
        self.key_columns = tuple(key_columns)
        self.columns = tuple(columns)
        self.where = where
        # Registration flags, normalized by Database.create_view: every
        # view index is keyed uniquely by construction (``unique``), and
        # ``deferred`` leaves this view to refresh_view regardless of
        # the global maintenance_mode.
        self.unique = True
        self.deferred = False
        missing = [c for c in self.key_columns if c not in self.columns]
        if missing:
            raise CatalogError(
                f"view {name!r}: key columns {missing!r} not in columns"
            )

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, key={self.key_columns!r})"

    def base_tables(self):
        raise NotImplementedError

    def bind_keys(self, catalog):
        """Take primary-key columns the definition left unset from the
        catalog (``Database.create_view`` calls this)."""

    def recompute(self, rows_of):
        """The view's contents ``{key: row}`` computed from scratch by
        the reference executor over ``rows_of(table)``."""
        raise NotImplementedError

    def owned_indexes(self):
        """``(index name, key columns, row columns)`` of every index the
        view owns, its own first."""
        return [(self.name, self.key_columns, self.columns)] + [
            (aux.name, aux.key_columns,
             aux.key_columns if aux.source else self.columns)
            for aux in self.aux_indexes
        ]

    def relevant(self, row):
        """True if ``row`` — a base row, or a joined one — passes the
        view's predicate."""
        return self.where is None or self.where(row)

    def has_extremes(self):
        """True if the view carries MIN/MAX columns (see
        :meth:`AggregateView.has_extremes`)."""
        return False

    def counter_columns(self):
        """Columns maintained as escrow counters; none but for
        aggregate-shaped views."""
        return ()

    def key_of(self, row):
        """The view-index key of a view row."""
        return tuple(row[c] for c in self.key_columns)


class _Grouped(ViewDefinition):
    """What the aggregate-shaped kinds share: GROUP BY columns, a COUNT(*)
    column (it detects empty groups, as in SQL Server), the counters and
    their escrow ``bounds`` — a map from an aggregate output column to
    ``(low, high)`` limits, either end ``None``. The escrow test enforces
    them under *every* possible outcome of in-flight transactions — a
    declarative business rule ("branch totals never below reserve") with
    no read-validate cycle and no cascading aborts. COUNT(*) always has an
    implicit low bound of 0."""

    def __init__(self, name, group_by, aggregates, where, bounds):
        if not group_by:
            raise CatalogError(f"view {name!r}: GROUP BY must not be empty")
        aggregates = tuple(aggregates)
        counts = [a.out for a in aggregates if a.func is AggFunc.COUNT]
        if not counts:
            raise CatalogError(
                f"view {name!r}: an aggregate view requires a COUNT(*) "
                "column (it detects empty groups, as in SQL Server)"
            )
        out_names = [a.out for a in aggregates]
        if len(set(out_names)) != len(out_names):
            raise CatalogError(f"view {name!r}: duplicate aggregate columns")
        clash = set(out_names) & set(group_by)
        if clash:
            raise CatalogError(
                f"view {name!r}: aggregate columns {sorted(clash)!r} clash "
                "with group-by columns"
            )
        super().__init__(
            name, group_by, tuple(group_by) + tuple(out_names), where
        )
        self.group_by = tuple(group_by)
        self.aggregates = aggregates
        self.count_column = counts[0]
        self.counter_specs = tuple(a for a in aggregates if not a.is_extreme())
        self.extreme_specs = tuple(a for a in aggregates if a.is_extreme())
        self.bounds = dict(bounds or {})
        unknown_bounds = [c for c in self.bounds if c not in out_names]
        if unknown_bounds:
            raise CatalogError(
                f"view {name!r}: bounds on unknown columns {unknown_bounds!r}"
            )

    def bounds_for(self, column):
        """The (low, high) escrow bounds of ``column``; COUNT(*) gets an
        implicit ``low=0``."""
        low, high = self.bounds.get(column, (None, None))
        if column == self.count_column:
            low = 0 if low is None else max(low, 0)
        return low, high

    def has_extremes(self):
        """True if the view carries MIN/MAX columns — which forces
        exclusive (non-escrow) maintenance of its rows and delete-time
        group rescans. This is the extension beyond SQL Server's indexed
        views; see :mod:`repro.query.aggregates`."""
        return bool(self.extreme_specs)

    def counter_columns(self):
        """Columns maintained as escrow counters (COUNT/SUM only)."""
        return tuple(a.out for a in self.counter_specs)

    def zero_row(self, group_key):
        """A fresh view row for a new group, all counters zero."""
        from repro.common.rows import Row

        values = dict(zip(self.group_by, group_key))
        for spec in self.aggregates:
            values[spec.out] = spec.initial_value()
        return Row(values)


class AggregateView(_Grouped):
    """A GROUP BY view with COUNT/SUM aggregates (and MIN/MAX, the
    extension)."""

    kind = "aggregate"

    def __init__(self, name, base, group_by, aggregates, where=None, bounds=None):
        super().__init__(name, group_by, aggregates, where, bounds)
        self.base = base

    def base_tables(self):
        return (self.base,)

    def recompute(self, rows_of):
        return executor.recompute_aggregate_view(rows_of(self.base), self)

    def group_key_of_base_row(self, base_row):
        return tuple(base_row[c] for c in self.group_by)


class _JoinSides:
    """What the two join-shaped kinds share: the tables, the ON pairs,
    primary keys the catalog can supply, and the internal ``#leftfk``
    index on the left table's join columns (it lets a right-side change
    find the left rows that reference it)."""

    def _init_sides(self, left, right, on, left_pk, right_pk):
        self.left = left
        self.right = right
        self.on = tuple(on)
        if not self.on:
            raise CatalogError(f"view {self.name!r}: join needs ON pairs")
        self.left_pk = self.right_pk = None
        if left_pk is not None and right_pk is not None:
            self._set_keys(left_pk, right_pk)

    def bind_keys(self, catalog):
        if self.left_pk is None:
            self._set_keys(
                catalog.table(self.left).primary_key,
                catalog.table(self.right).primary_key,
            )

    def _set_keys(self, left_pk, right_pk):
        self.left_pk = tuple(left_pk)
        self.right_pk = tuple(right_pk)
        right_on = [rc for _, rc in self.on]
        if set(right_on) != set(self.right_pk):
            raise CatalogError(
                f"view {self.name!r}: the right side must be joined on "
                f"exactly its primary key {self.right_pk!r}, got {right_on!r}"
            )
        self.leftfk_index = AuxIndex(
            f"{self.name}#leftfk",
            tuple(lc for lc, _ in self.on) + self.left_pk,
            source=self.left,
        )
        self.aux_indexes = (self.leftfk_index,)

    def base_tables(self):
        return (self.left, self.right)

    def left_fk_of(self, left_row):
        """The right-table key matched by a left row."""
        return tuple(left_row[lc] for lc, _ in self.on)


class JoinView(_JoinSides, ViewDefinition):
    """A two-table foreign-key join view."""

    kind = "join"

    def __init__(self, name, left, right, on, columns=None, where=None,
                 left_pk=None, right_pk=None):
        """``on`` is a sequence of (left_col, right_col) pairs, where every
        right column must be part of the right table's primary key.

        ``left_pk`` / ``right_pk`` are the base tables' primary-key
        columns (they name columns of the *joined* row, so they must
        survive projection); left unset, ``Database.create_view`` fills
        them from the catalog.
        """
        if columns is None:
            raise CatalogError(
                f"view {name!r}: list the projected columns explicitly"
            )
        super().__init__(name, (), columns, where)
        self._init_sides(left, right, on, left_pk, right_pk)

    def _set_keys(self, left_pk, right_pk):
        super()._set_keys(left_pk, right_pk)
        self.key_columns = self.left_pk + tuple(
            c for c in self.right_pk if c not in self.left_pk
        )
        missing = [c for c in self.key_columns if c not in self.columns]
        if missing:
            raise CatalogError(
                f"view {self.name!r}: projected columns must include the "
                f"view key columns {missing!r}"
            )
        #: the secondary index keyed right-side first, so a right-side
        #: delete finds its view rows without scanning
        self.right_index = AuxIndex(
            f"{self.name}#right",
            self.right_pk + tuple(
                c for c in self.left_pk if c not in self.right_pk
            ),
        )
        self.aux_indexes = (self.right_index, self.leftfk_index)

    def recompute(self, rows_of):
        return executor.recompute_join_view(
            rows_of(self.left), rows_of(self.right), self
        )


class JoinAggregateView(_JoinSides, _Grouped):
    """``SELECT g.., COUNT(*), SUM(x).. FROM left JOIN right ON left.fk =
    right.pk [WHERE p] GROUP BY g..`` — the canonical SQL Server indexed
    view shape, composing the join and aggregate machinery.

    Group-by columns and aggregate sources name columns of the *joined*
    row. Only COUNT/SUM are allowed (the escrow-maintainable functions);
    the view row itself is maintained exactly like a plain aggregate
    view's — including escrow locking — with contributions computed from
    joined rows.
    """

    kind = "join_aggregate"

    def __init__(self, name, left, right, on, group_by, aggregates,
                 where=None, bounds=None, left_pk=None, right_pk=None):
        aggregates = tuple(aggregates)
        if any(a.is_extreme() for a in aggregates):
            raise CatalogError(
                f"view {name!r}: MIN/MAX are not supported over joins "
                "(only the delta-maintainable COUNT/SUM are)"
            )
        super().__init__(name, group_by, aggregates, where, bounds)
        self._init_sides(left, right, on, left_pk, right_pk)

    def recompute(self, rows_of):
        return executor.recompute_join_aggregate_view(
            rows_of(self.left), rows_of(self.right), self
        )

    def group_key_of_joined_row(self, joined_row):
        return tuple(joined_row[c] for c in self.group_by)

    def deltas_for_joined(self, joined_row, sign):
        """Counter deltas of one joined row, or None if filtered out."""
        if not self.relevant(joined_row):
            return None
        return {a.out: a.delta_for(joined_row, sign) for a in self.aggregates}


class ProjectionView(ViewDefinition):
    """SELECT columns FROM base WHERE p, keyed by the base primary key."""

    kind = "projection"

    def __init__(self, name, base, columns, where=None, base_pk=None):
        """``base_pk`` left unset is filled from the catalog by
        ``Database.create_view``."""
        super().__init__(name, (), columns, where)
        self.base = base
        if base_pk is not None:
            self._set_keys(base_pk)

    def bind_keys(self, catalog):
        if not self.key_columns:
            self._set_keys(catalog.table(self.base).primary_key)

    def _set_keys(self, base_pk):
        missing = [c for c in base_pk if c not in self.columns]
        if missing:
            raise CatalogError(
                f"view {self.name!r}: projected columns must include the "
                f"base primary key {missing!r}"
            )
        self.key_columns = tuple(base_pk)

    def base_tables(self):
        return (self.base,)

    def recompute(self, rows_of):
        return executor.recompute_projection_view(rows_of(self.base), self)

    def project(self, base_row):
        return base_row.project(self.columns)

    def entry(self, base_row):
        """``(key, view row)`` of the entry ``base_row`` derives, or
        ``None`` for no row or one the predicate filters out."""
        if base_row is None or not self.relevant(base_row):
            return None
        row = self.project(base_row)
        return self.key_of(row), row


class SecondaryIndex(ProjectionView):
    """A secondary index on a base table, ``table#name``: the projection
    of the indexed columns plus the primary key (so a lookup can fetch
    the base row), keyed by the indexed columns when ``unique`` and by
    the indexed columns then the primary key otherwise — the standard
    trick for storing duplicates in a unique B-tree.

    A unique index refuses a duplicate value at statement time (the
    projection maintainer's compile phase) and at build time
    (:meth:`recompute`), so it is :attr:`always_maintained`."""

    always_maintained = True

    def __init__(self, table, name, columns, unique=False):
        self.indexed = tuple(columns)
        super().__init__(f"{table}#{name}", table, self.indexed)
        self.unique = unique

    def bind_keys(self, catalog):
        schema = catalog.table(self.base)
        unknown = [c for c in self.indexed if c not in schema.columns]
        if unknown:
            raise CatalogError(
                f"secondary index on {self.base!r}: unknown columns "
                f"{unknown!r}"
            )
        self.columns = self.indexed + tuple(
            c for c in schema.primary_key if c not in self.indexed
        )
        self.key_columns = self.indexed if self.unique else self.columns

    def recompute(self, rows_of):
        contents = {}
        for row in rows_of(self.base):
            key, entry = self.entry(row)
            if key in contents:
                raise CatalogError(
                    f"unique index {self.name!r}: duplicate value {key!r}"
                )
            contents[key] = entry
        return contents
