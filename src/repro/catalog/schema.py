"""Table schemas, row layouts and the catalog registry.

The catalog is deliberately light: tables declare column names and a
primary key; views (defined in :mod:`repro.views.definition`) register
against their base tables so the maintenance engine can find them. Rows
are validated at the table boundary — deeper layers trust them. Each
index's rows are logged and paged by position, against a
:class:`RowLayout` the catalog hands out.
"""

from repro.common import CatalogError, StorageError


class RowLayout:
    """What a packed row of one index means: a stable u16 ``id`` (what
    log records and page entries carry), the index ``name``, its row
    ``columns`` and escrow ``counters`` in packing order."""

    __slots__ = ("id", "name", "columns", "counters")

    def __init__(self, layout_id, name, columns, counters=()):
        self.id = layout_id
        self.name = name
        self.columns = tuple(columns)
        self.counters = tuple(counters)

    def __repr__(self):
        return f"RowLayout({self.id}, {self.name!r}, {self.columns}, {self.counters})"

    def definition(self):
        return self.name, self.columns, self.counters


class TableSchema:
    """Declares a table: column names and primary-key columns.

    >>> t = TableSchema("orders", ("id", "customer", "amount"), ("id",))
    >>> t.key_of({"id": 1, "customer": 2, "amount": 30})
    (1,)
    """

    def __init__(self, name, columns, primary_key):
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        if not primary_key:
            raise CatalogError(f"table {name!r} needs a primary key")
        unknown = [c for c in primary_key if c not in columns]
        if unknown:
            raise CatalogError(
                f"table {name!r}: primary key columns {unknown!r} not in columns"
            )
        if len(set(columns)) != len(columns):
            raise CatalogError(f"table {name!r}: duplicate column names")
        self.name = name
        self.columns = tuple(columns)
        self.primary_key = tuple(primary_key)

    def __repr__(self):
        return f"TableSchema({self.name!r}, pk={self.primary_key!r})"

    def validate_row(self, row):
        """Check that ``row`` has exactly this table's columns."""
        missing = [c for c in self.columns if c not in row]
        if missing:
            raise CatalogError(
                f"row for table {self.name!r} missing columns {missing!r}"
            )
        extra = [c for c in row if c not in self.columns]
        if extra:
            raise CatalogError(
                f"row for table {self.name!r} has unknown columns {extra!r}"
            )

    def validate_changes(self, changes):
        """Check that ``changes`` (column -> value, an UPDATE's) names
        only non-key columns of this table."""
        bad = [c for c in changes if c in self.primary_key]
        if bad:
            raise StorageError(
                f"primary-key columns {bad!r} are immutable; "
                "delete+insert instead"
            )
        unknown = [c for c in changes if c not in self.columns]
        if unknown:
            raise StorageError(
                f"unknown columns {unknown!r} for table {self.name!r}"
            )

    def key_of(self, row):
        """Extract the primary-key tuple from a row or mapping."""
        return tuple(row[c] for c in self.primary_key)


class Catalog:
    """Registry of tables and views."""

    def __init__(self):
        self._tables = {}
        self._views = {}
        self._views_by_base = {}
        self._layouts = {}  # id -> RowLayout, every one ever handed out

    def copy(self):
        """A catalog with these tables and views that changes apart."""
        clone = Catalog()
        clone._tables = dict(self._tables)
        for view in self._views.values():
            clone.add_view(view)
        return clone

    # -- row layouts -----------------------------------------------------

    def layout(self, name, columns, counters=()):
        """A new layout for one incarnation of an index, with an id no
        layout has had: the records of an index dropped and re-created,
        even under the same definition, never reach the new one. A column
        named twice (an index keyed by a join column that is also in the
        primary key) is stored once, so it is laid out once."""
        layout_id = max(self._layouts, default=0) + 1
        if layout_id > 0xFFFF:
            raise CatalogError("no row layout id left")
        layout = RowLayout(
            layout_id, name, dict.fromkeys(columns), counters
        )
        self._layouts[layout_id] = layout
        return layout

    def layouts(self):
        """``{id: RowLayout}``: every layout handed out (the one table
        the log decodes against)."""
        return self._layouts

    def adopt_layouts(self, table):
        """Take the numbering of an adopted log's layout ``table`` (``{id:
        RowLayout}``, its live layouts bound to this catalog's); this
        catalog's other layouts get fresh ids past it. The table is
        changed in place: the records the log holds and those appended
        after them decode against it."""
        kept = set(map(id, table.values()))
        rest = [l for l in self._layouts.values() if id(l) not in kept]
        self._layouts.clear()
        self._layouts.update(table)
        for layout_id, layout in table.items():
            layout.id = layout_id
        for layout in rest:
            layout.id = max(self._layouts, default=0) + 1
            self._layouts[layout.id] = layout

    # -- tables ----------------------------------------------------------

    def add_table(self, schema):
        if schema.name in self._tables or schema.name in self._views:
            raise CatalogError(f"name {schema.name!r} already in use")
        self._tables[schema.name] = schema
        return schema

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name):
        return name in self._tables

    def tables(self):
        return list(self._tables.values())

    # -- views -----------------------------------------------------------

    def add_view(self, view):
        if view.name in self._views or view.name in self._tables:
            raise CatalogError(f"name {view.name!r} already in use")
        for base in view.base_tables():
            if base not in self._tables:
                raise CatalogError(
                    f"view {view.name!r} references unknown table {base!r}"
                )
        self._views[view.name] = view
        for base in view.base_tables():
            self._views_by_base.setdefault(base, []).append(view)
        return view

    def view(self, name):
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"no view named {name!r}") from None

    def has_view(self, name):
        return name in self._views

    def drop_view(self, name):
        """Unregister a view (used when an online build vanishes)."""
        view = self._views.pop(name, None)
        if view is None:
            raise CatalogError(f"no view named {name!r}")
        for base in view.base_tables():
            registered = self._views_by_base.get(base)
            if registered and view in registered:
                registered.remove(view)
        return view

    def views(self):
        return list(self._views.values())

    def views_on(self, table_name):
        """Views that must be maintained when ``table_name`` changes."""
        return list(self._views_by_base.get(table_name, ()))
