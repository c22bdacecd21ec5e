"""Secondary indexes on base tables.

A secondary index maps ``(indexed columns..., primary key...)`` to a
reference row, so lookups by non-key columns become index probes instead
of scans. The primary-key suffix makes every entry key unique, which is
how non-unique indexes live in a unique B-tree (the standard trick).

Unlike the views' internal ``#leftfk`` indexes (whose only readers are
the maintainers themselves, so base-row locks cover them), secondary
indexes serve **predicate reads**: a serializable probe for
``city = 'oslo'`` gap-locks the probed range, and that promise is only
worth anything if inserting a new oslo entry takes the matching
insert-intent lock. Secondary-entry maintenance therefore runs the full
key-range protocol on the secondary index: RangeI-N on the gap fence +
X on the new entry for inserts, X on the entry for ghosting.

Entries are ghosted on delete (the cleaner reclaims them) and logged, so
recovery rebuilds them with everything else — including the entries an
index created over existing rows starts with, which one registered
system transaction inserts (complete or absent after a crash, like a
view build; see :mod:`repro.views.online`).
"""

from repro.common import CatalogError, SimulatedCrash
from repro.common.keys import KeyRange
from repro.locking import LockMode
from repro.locking.keyrange import (
    locks_for_insert,
    locks_for_logical_delete,
    locks_for_point_read,
    locks_for_range_scan,
    table_resource,
)
from repro.storage import Index
from repro.txn.write import ghost, put
from repro.views.actions import Action


def secondary_name(table, index_name):
    return f"{table}#{index_name}"


class SecondaryIndexDef:
    """One secondary index: which table, which columns, unique or not.

    A **unique** index keys entries by the indexed columns alone and
    enforces the constraint: inserting a duplicate value fails the
    statement. A non-unique index appends the base primary key to the
    entry key (the standard trick for storing duplicates in a unique
    B-tree).
    """

    __slots__ = ("table", "name", "columns", "unique", "full_name")

    def __init__(self, table, name, columns, unique=False):
        self.table = table
        self.name = name
        self.columns = tuple(columns)
        self.unique = unique
        self.full_name = secondary_name(table, name)

    def __repr__(self):
        flag = ", unique" if self.unique else ""
        return f"SecondaryIndexDef({self.full_name!r}, on={self.columns!r}{flag})"


class SecondaryIndexManager:
    """Creates and maintains base-table secondary indexes."""

    def __init__(self, db):
        self._db = db
        self._by_table = {}  # table -> [SecondaryIndexDef]

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create(self, table, name, columns, unique=False):
        """Create and materialize a secondary index on ``table``."""
        db = self._db
        schema = db.catalog.table(table)
        unknown = [c for c in columns if c not in schema.columns]
        if unknown:
            raise CatalogError(
                f"secondary index on {table!r}: unknown columns {unknown!r}"
            )
        definition = SecondaryIndexDef(table, name, columns, unique=unique)
        if any(
            d.name == name for d in self._by_table.get(table, ())
        ):
            raise CatalogError(
                f"table {table!r} already has an index named {name!r}"
            )
        if unique:
            key_columns = definition.columns
        else:
            key_columns = definition.columns + tuple(
                c for c in schema.primary_key if c not in definition.columns
            )
        db._indexes[definition.full_name] = Index(
            definition.full_name,
            key_columns,
            order=db.config.btree_order,
            latch_set=db.latches,
        )
        self._by_table.setdefault(table, []).append(definition)
        if db.index(table).total_entries():
            self._fill(definition)
        return definition

    def _fill(self, definition):
        """Enter the table's existing rows: logged puts in one system
        transaction holding S on the table, listed with the builds so a
        crash before its durable commit drops the index again."""
        db = self._db
        name, table = definition.full_name, definition.table
        index = db.index(name)

        def drop():
            self._by_table[table].remove(definition)
            db._indexes.pop(name, None)
            db.cleanup.drop_index(name)

        def fill(txn):
            txn.acquire(table_resource(table), LockMode.S)
            for row in db.index(table).rows():
                key, ref = self.entry(definition, row)
                if definition.unique and index.get_record(key) is not None:
                    raise CatalogError(
                        f"cannot create unique index {definition.name!r} "
                        f"on {table!r}: duplicate value {key!r}"
                    )
                db.acquire_plan(
                    txn, locks_for_insert(index, key, db.config.serializable)
                )
                put(db, txn, index, key, ref)

        txn = db.begin_system()
        db.online_builds.register(name, txn.txn_id, drop)
        try:
            db.settle(txn, fill)
        except SimulatedCrash:
            raise  # recovery settles it (resolve_after_recovery)
        except BaseException:
            drop()
            db.online_builds.remove(name)
            raise
        db.online_builds.remove(name)

    def entry(self, definition, row):
        """``(key, stored reference row)`` of a base row's entry: the
        indexed columns plus the base primary key (always carried, so
        lookups can fetch the base row)."""
        key_columns = self._db.index(definition.full_name).key_columns
        ref_cols = key_columns + tuple(
            c for c in self._db.table_pk(definition.table)
            if c not in key_columns
        )
        return row.key(key_columns), row.project(ref_cols)

    def _entry_key(self, definition, row):
        return row.key(self._db.index(definition.full_name).key_columns)

    def indexes_on(self, table):
        return list(self._by_table.get(table, ()))

    def definition(self, table, name):
        for d in self._by_table.get(table, ()):
            if d.name == name:
                return d
        raise CatalogError(f"no index {name!r} on table {table!r}")

    # ------------------------------------------------------------------
    # maintenance (compiled into the statement's action list)
    # ------------------------------------------------------------------

    def compile(self, table, op, before, after):
        """Actions maintaining every secondary index of ``table``."""
        actions = []
        for definition in self._by_table.get(table, ()):
            if op == "insert":
                actions.append(self._insert_action(definition, after))
            elif op == "delete":
                actions.append(self._ghost_action(definition, before))
            else:  # update
                old_key = self._entry_key(definition, before)
                new_key = self._entry_key(definition, after)
                if old_key != new_key:
                    actions.append(self._ghost_action(definition, before))
                    actions.append(self._insert_action(definition, after))
        return actions

    def _insert_action(self, definition, row):
        db = self._db
        index = db.index(definition.full_name)
        key, ref = self.entry(definition, row)
        if definition.unique and index.get_record(key) is not None:
            # Compile-phase check: nothing has mutated yet, so the
            # statement fails cleanly and the transaction stays usable.
            raise CatalogError(
                f"unique index {definition.name!r} on "
                f"{definition.table!r}: duplicate value {key!r}"
            )

        def apply(d, t):
            put(d, t, index, key, ref)
            d.counters.incr("secondary.entry_inserted")

        plan = locks_for_insert(index, key, db.config.serializable)
        return Action(f"sec-insert {definition.full_name}{key!r}", plan, apply)

    def _ghost_action(self, definition, row):
        index = self._db.index(definition.full_name)
        key = self._entry_key(definition, row)

        def apply(d, t):
            if ghost(d, t, index, key) is not None:
                d.counters.incr("secondary.entry_ghosted")

        plan = locks_for_logical_delete(index, key)
        return Action(f"sec-ghost {definition.full_name}{key!r}", plan, apply)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def lookup(self, txn, table, name, values):
        """Fetch base rows whose indexed columns equal ``values``.

        Takes serializable range locks on the probed secondary entries
        (phantom protection for the predicate) and point locks on the
        fetched base rows; snapshot transactions read versions instead.
        """
        db = self._db
        definition = self.definition(table, name)
        if len(values) != len(definition.columns):
            raise CatalogError(
                f"index {name!r} on {table!r} takes {len(definition.columns)} "
                f"values, got {len(values)}"
            )
        index = db.index(definition.full_name)
        probe = KeyRange.prefix(tuple(values), len(index.key_columns))
        base = db.index(table)
        pk_cols = db.table_pk(table)
        if txn.isolation in ("snapshot", "read_committed"):
            as_of = (
                txn.read_ts if txn.isolation == "snapshot" else db.clock.now()
            )
            rows = []
            for _, entry in index.scan(probe, include_ghosts=True):
                ref = entry.read_as_of(as_of)
                if ref is None:
                    continue
                base_record = base.get_record(
                    tuple(ref[c] for c in pk_cols), include_ghost=True
                )
                if base_record is None:
                    continue
                row = base_record.read_as_of(as_of)
                if row is not None:
                    rows.append(row)
            txn.stats.reads += len(rows)
            return rows
        plan = locks_for_range_scan(
            index, probe, serializable=db.config.serializable
        )
        db.acquire_plan(txn, plan)
        rows = []
        for _, entry in index.scan(probe):
            base_key = tuple(entry.current_row[c] for c in pk_cols)
            db.acquire_plan(txn, locks_for_point_read(base, base_key))
            row = base.get_row(base_key)
            if row is not None:
                rows.append(row)
        txn.stats.reads += len(rows)
        return rows
