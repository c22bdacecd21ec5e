"""The index registry: every index of one engine and the pages under it.

:class:`Indexes` owns, state and decisions both: the index map and the
index -> owning view map (indexes are created and dropped here and only
here — :meth:`~Indexes.add_table`, :meth:`~Indexes.add_view` /
:meth:`~Indexes.drop_view`, and all anew after a crash,
:meth:`~Indexes.renew`); the per-table write plans
(:class:`~repro.views.maintenance.WritePlan`) and, beside them, the
prepared SQL statements keyed by shape (:mod:`repro.sql.compiler`) —
both made afresh by :meth:`~Indexes.replan`, which every catalog change
passes through; the page world of
``docs/STORAGE.md`` — page ids, the dirty-leaf table (:attr:`~Indexes.pool`)
and the durable store (:attr:`~Indexes.store`); and the recovery target
(:class:`~repro.wal.recovery.RecoveryTarget`), whose verbs bypass
locking: recovery runs single-threaded, online rollback under the
aborting transaction's own locks. Each index has the
:class:`~repro.catalog.RowLayout` the catalog interns for it; a log
restored from segment files binds to them by name (:meth:`~Indexes.bind`).
The engine's volatile part, the cleaner's list, is read through the
engine, since a crash replaces it.
"""

import itertools

from repro.common import CatalogError, StorageError
from repro.common.rows import adopt_row
from repro.storage import Index
from repro.storage.bufferpool import BufferPool, PageStore
from repro.wal.recovery import RecoveryTarget

#: how many statement shapes keep a prepared plan; the oldest goes first
PREPARED_SHAPES = 256


class Indexes(RecoveryTarget):
    """The indexes of one :class:`~repro.core.database.Database`."""

    def __init__(self, db):
        self._db = db
        self._indexes = {}
        self._views = {}  # index name -> owning view definition
        self._plans = {}  # table name -> WritePlan
        self._prepared = {}  # statement shape key -> prepared plan
        #: every B-tree leaf is a page with an id unique to this engine
        self._page_ids = itertools.count(1)
        self.pool = None  # the dirty-leaf table, made anew by renew()
        self.store = None  # survives a crash; replaced by attach_store()

    # ------------------------------------------------------------------
    # creating and dropping
    # ------------------------------------------------------------------

    def add_table(self, schema):
        """The (empty) primary-key index of the table ``schema``."""
        layout = self._db.catalog.layout(schema.name, schema.columns)
        self._indexes[schema.name] = self._new(layout, schema.primary_key)
        self.replan([schema.name])

    def add_view(self, view):
        """Register ``view`` in the catalog with the (empty) family of
        indexes it owns; replan its base tables."""
        if view.name in self._indexes:
            # Validate *before* mutating anything: a duplicate name must
            # never reach drop_view, which would drop the storage of the
            # existing view or table that owns the name.
            raise CatalogError(f"name {view.name!r} already in use")
        catalog = self._db.catalog
        catalog.add_view(view)
        for index_name, key_columns, columns in view.owned_indexes():
            layout = catalog.layout(index_name, columns, (
                view.counter_columns() if index_name == view.name else ()
            ))
            self._indexes[index_name] = self._new(layout, key_columns)
            self._views[index_name] = view
        self.replan(view.base_tables())

    def drop_view(self, view):
        """Drop ``view``'s catalog entry, every index it owns with its
        pages and cleanup candidates; replan its base tables."""
        db = self._db
        if db.catalog.has_view(view.name):
            db.catalog.drop_view(view.name)
        for index_name, *_ in view.owned_indexes():
            index = self._indexes.pop(index_name, None)
            if index is not None:  # its pages go too: a rebuild reuses the name
                self.pool.discard(index.layout, index.leaves())
            self._views.pop(index_name, None)
            db.cleanup.drop_index(index_name)
        self.replan(view.base_tables())

    def replan(self, tables):
        """Build the write plans of ``tables`` afresh, and forget every
        prepared statement: the catalog they were bound to has changed."""
        db = self._db
        for table in tables:
            self._plans[table] = db.maintenance.plan(db, table)
        self._prepared.clear()

    def _new(self, layout, key_columns):
        """An empty index of ``layout`` whose leaves are pages of this
        engine."""
        return Index(
            layout.name, key_columns, order=self._db.config.btree_order,
            pages=self.pool, layout=layout,
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def index(self, name):
        try:
            return self._indexes[name]
        except KeyError:
            raise StorageError(f"no index named {name!r}") from None

    def names(self):
        return sorted(self._indexes)

    def items(self):
        """``(name, index)`` pairs, in creation order."""
        return self._indexes.items()

    def write_plan(self, table):
        """``table``'s :class:`~repro.views.maintenance.WritePlan`."""
        try:
            return self._plans[table]
        except KeyError:
            raise CatalogError(f"no table named {table!r}") from None

    def prepared(self, key):
        """The prepared statement of shape ``key``, or ``None``."""
        return self._prepared.get(key)

    def keep_prepared(self, key, plan):
        """Keep ``plan`` for shape ``key`` until the next :meth:`replan`
        (or until :data:`PREPARED_SHAPES` newer shapes push it out)."""
        prepared = self._prepared
        if len(prepared) >= PREPARED_SHAPES and key not in prepared:
            del prepared[next(iter(prepared))]
        prepared[key] = plan

    def view_of(self, index_name):
        """The view owning ``index_name``, or ``None`` (a table's)."""
        return self._views.get(index_name)

    def count_column(self, index_name):
        """The COUNT(*) column whose zero marks a row of ``index_name``
        logically deleted, or ``None`` (a view's own index has one)."""
        view = self._views.get(index_name)
        if view is None or view.name != index_name:
            return None
        return view.count_column

    def rows_as_of(self, table, as_of):
        """The committed rows of ``table`` as of timestamp ``as_of``,
        read from the version chains without locks."""
        rows = (
            record.read_as_of(as_of)
            for _, record in self.index(table).scan(include_ghosts=True)
        )
        return [row for row in rows if row is not None]

    # ------------------------------------------------------------------
    # the page world across a crash
    # ------------------------------------------------------------------

    def renew(self):
        """At start and after a crash: a fresh dirty-leaf table (it writes
        nothing until :meth:`attach_store`: recovery only reads the old
        store), every index anew and empty, every table replanned."""
        db, config = self._db, self._db.config
        self.pool = BufferPool(
            capacity=config.buffer_pool_frames, log=db.log,
            tracer=db.tracer, page_size=config.page_size,
            page_ids=self._page_ids,
        )
        for name, index in list(self._indexes.items()):
            self._indexes[name] = self._new(index.layout, index.key_columns)
        self.replan(schema.name for schema in db.catalog.tables())

    def layouts(self):
        """A segment header's layout table: ``(layout, live)`` for every
        layout handed out, by id; ``live`` when an index has it now."""
        live = {id(index.layout) for index in self._indexes.values()}
        return [
            (layout, id(layout) in live)
            for _, layout in sorted(self._db.catalog.layouts().items())
        ]

    def bind(self, pairs):
        """The ``{id: layout}`` table a restored log decodes against: a
        segment chain's ``(layout, live)`` ``pairs``, each live one bound
        to the index of its name (one that binds nothing changes nothing
        here), or a :class:`StorageError` if its columns or counters
        differ. Changes nothing itself."""
        table = {}
        for layout, live in pairs:
            index = self._indexes.get(layout.name) if live else None
            if index is None:
                table[layout.id] = layout
                continue
            mine = index.layout
            if mine.definition() != layout.definition():
                raise StorageError(
                    f"cannot restore this WAL: {mine} here, {layout} in it"
                )
            table[layout.id] = mine
        return table

    def seed(self, winners):
        """Recovery's seed: the newest durable entry per key (the
        ``durable_winners`` table) into the fresh indexes. A dropped key
        needs no entry; the cleaner's work list is rebuilt after redo."""
        for (index_name, key), (lsn, row, is_ghost) in winners.items():
            if row is not None and index_name in self._indexes:
                self._indexes[index_name].set_entry(
                    key, (adopt_row(row), is_ghost), lsn
                )

    def attach_store(self):
        """A brand-new page store holding one image per non-empty leaf —
        how an engine starts, and recovery's last step
        (``docs/STORAGE.md`` §4 rule (d)): from here on the durable pages
        and the recovered state agree."""
        self.store = PageStore(faults=self._db.faults)
        self.pool.attach(self.store, (
            leaf for index in self._indexes.values() for leaf in index.leaves()
        ))

    def stats(self):
        """The ``stats()["storage"]`` block."""
        store = self.store
        return {
            "pool": self.pool.stats(),
            "store_pages": len(store),
            "store_writes": store.writes,
            "store_reads": store.reads,
            "torn_writes": store.torn_writes,
        }

    # ------------------------------------------------------------------
    # the recovery target (also online rollback's)
    # ------------------------------------------------------------------

    def record(self, index_name, key):
        """The record at ``key`` of ``index_name``, ghosts included;
        ``None`` when either is absent."""
        index = self._indexes.get(index_name)
        if index is None:
            return None
        return index.get_record(tuple(key), include_ghost=True)

    def _of(self, layout):
        """The index of ``layout``'s name, unless re-created since under
        another definition: then a record of ``layout`` changes nothing."""
        index = self._indexes.get(layout.name)
        if index is None or index.layout.id != layout.id:
            return None
        return index

    def set_entry(self, layout, key, entry, lsn):
        index = self._of(layout)
        if index is None:
            return
        key = tuple(key)
        was_ghost = index.is_ghost(key)
        index.set_entry(key, entry, lsn)
        # The cleaner's list in step: a ghost is a candidate, a revived
        # one is not; live -> live may be a zero-count group waiting there.
        if entry is not None and entry[1]:
            self._db.cleanup.enqueue(index.name, key)
        elif entry is not None and was_ghost:
            self._db.cleanup.cancel(index.name, key)

    def add_deltas(self, layout, key, deltas, lsn):
        index = self._of(layout)
        if index is None:
            return
        record = index.get_record(tuple(key), include_ghost=True)
        if record is None:
            return
        row = record.current_row
        changes = {c: row[c] + d for c, d in deltas.items()}
        record.current_row = row.replace(**changes)
        index.stamp(record, lsn)

    def stamp(self, index_name, key, lsn):
        """Online rollback's escrow half: an unreserve at ``lsn`` (a CLR)
        moved what the row's image holds without changing the row."""
        record = self.record(index_name, key)
        if record is not None:
            self._indexes[index_name].stamp(record, lsn)
