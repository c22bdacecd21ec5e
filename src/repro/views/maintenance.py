"""Write plans: each table's DML, compiled once per schema change.

DDL on a table (and recovery, which makes every index anew) rebuilds its
:class:`WritePlan`: the base index, the table lock, and the views over
the table in catalog order, each bound to its maintainer with its
group-key and delta functions worked out. A *statement* — one or more
row changes, from ``Database.insert`` / ``update`` / ``delete`` or SQL —
runs through it in three steps (``docs/ARCHITECTURE.md`` §2):

1. **resolve**: an INSERT checks every row — values, its key's place
   (:meth:`~repro.storage.index.Index.locate`), duplicates in the table
   and in the statement — before it locks anything; an UPDATE or DELETE
   locks each row X, then reads it;
2. **fold**: each aggregate view's counter deltas are summed per group
   over the statement, and each group is located once;
3. **rows**, in order: the base action and the views' per-row actions
   (:meth:`MaintenanceEngine.compile`) run through
   :func:`~repro.views.actions.run_actions`; the last row's list carries,
   in each folded view's place, one action per group.

A one-row statement takes exactly the locks, in exactly the order, of
compiling that row alone. Per statement, ``maintenance_mode`` picks the
views maintained: ``immediate`` all; ``commit_fold`` hands folded deltas
to the transaction (:class:`~repro.views.delta.TxnViewDeltas`, applied
before the commit record: R10); ``deferred`` none, counting the skipped
changes (R6). A secondary index (``always_maintained``) ignores the
mode; a view mid build or quarantined is suppressed.
"""

from repro.common import Row, StorageError
from repro.locking import LockMode
from repro.locking.keyrange import PLANS, LockEntry, table_resource
from repro.txn.write import ghost, patch, put
from repro.views.actions import Action, run_actions
from repro.views.aggregate import AggregateMaintainer
from repro.views.delta import NetDelta, TxnViewDeltas
from repro.views.join import JoinMaintainer
from repro.views.join_aggregate import JoinAggregateMaintainer
from repro.views.projection import ProjectionMaintainer
from repro.wal.codec import check_row


class MaintenanceEngine:
    """Builds write plans; compiles a statement's rows into view actions."""

    def __init__(self, catalog, aggregate_strategy="escrow"):
        self._catalog = catalog
        self.aggregate = AggregateMaintainer(strategy=aggregate_strategy)
        self._maintainers = {
            "aggregate": self.aggregate,
            "join": JoinMaintainer(),
            "join_aggregate": JoinAggregateMaintainer(self.aggregate),
            "projection": ProjectionMaintainer(),
        }

    def bindings(self, table):
        """One :class:`~repro.views.actions.Binding` per view over
        ``table``, in catalog order. Binding needs no engine: the static
        analyzer reads the lock entries of a scratch catalog's."""
        return [
            self._maintainers[view.kind].bind(view, table)
            for view in self._catalog.views_on(table)
        ]

    def plan(self, db, table):
        """``table``'s write plan under the current catalog."""
        return WritePlan(db, table, self.bindings(table))

    def compile(self, db, txn, statement, i):
        """The view actions of row change ``i`` of ``statement``, a plan's
        ``(changes, views, nets)``, in catalog order: per-row actions and,
        with the last change, each folded view's group actions (under
        ``commit_fold`` none: :meth:`WritePlan._run` hands the deltas to
        the transaction once the statement applied)."""
        changes, views, nets = statement
        _, before, after, _ = changes[i]
        last = i == len(changes) - 1
        actions = []
        for binding in views:
            view = binding.view
            net = nets.get(view.name)
            if binding.compile is not None:
                actions += binding.compile(
                    db, txn, view, binding.table, before, after, net
                )
            if not last or net is None or (
                db.config.maintenance_mode == "commit_fold"
            ):
                continue
            actions += [
                self.aggregate.compile_group_delta(
                    db, txn, view, key, deltas, net.positions.get(key)
                )
                for key, deltas in net.items()
            ]
        return actions


def base_locks(table):
    """The base row's own lock entries, per statement op — each verb the
    op itself (:class:`WritePlan` runs ``PLANS[op]``): an INSERT's key
    goes with the statement's actions; an UPDATE or DELETE locks its row X
    while locating it, before any view compiles."""
    key = f"<pk({table})>"
    return {
        "insert": (LockEntry("write", table, key, ("insert",)),),
        "update": (LockEntry("locate", table, key, ("update",)),),
        "delete": (LockEntry("locate", table, key, ("delete",)),),
    }


class WritePlan:
    """What every statement on one table runs through: ``insert``,
    ``update`` and ``delete`` return one result per row."""

    def __init__(self, db, table, views):
        self.table = table
        self.schema = db.catalog.table(table)
        self.columns = frozenset(self.schema.columns)
        self.index = db.index(table)
        self.table_lock = table_resource(table)
        self.views = views  # one Binding per view over the table

    def insert(self, db, txn, rows):
        """Insert ``rows`` (mappings); returns their keys."""
        txn.require_active()
        schema, index = self.schema, self.index
        changes, keys = [], set()
        for values in rows:
            row = values if isinstance(values, Row) else Row(values)
            if row.keys() != self.columns:
                schema.validate_row(row)
            check_row(row)
            key = row.key(schema.primary_key)
            at = index.locate(key)
            if key in keys or at.live() is not None:
                raise StorageError(
                    f"duplicate primary key {key!r} in {self.table!r}"
                )
            keys.add(key)
            changes.append((key, None, row, at))
        self._run(db, txn, changes)
        return [key for key, _, _, _ in changes]

    def update(self, db, txn, items):
        """Apply ``items``, ``(key, {column: value})`` pairs, to non-key
        columns; returns the rows after."""
        txn.require_active()
        for _, values in items:
            self.schema.validate_changes(values)
            check_row(values)
        changes, afters = [], []
        for key, values in items:
            at = self._lock_row(db, txn, tuple(key), "update")
            before = at.record.current_row
            afters.append(before.replace(**values))
            if afters[-1] != before:
                changes.append((at.key, before, afters[-1], at))
        self._run(db, txn, changes)
        return afters

    def delete(self, db, txn, keys):
        """Delete (ghost) the rows at ``keys``; returns the rows before."""
        txn.require_active()
        changes = []
        for key in keys:
            at = self._lock_row(db, txn, tuple(key), "delete")
            changes.append((at.key, at.record.current_row, None, at))
        self._run(db, txn, changes)
        return [before for _, before, _, _ in changes]

    def _lock_row(self, db, txn, key, verb):
        """The position of the live row at ``key``, read under ``verb``'s
        plan."""
        txn.acquire(self.table_lock, LockMode.IX)
        at = self.index.locate(key)
        db.acquire_plan(txn, PLANS[verb](self.index, key, at))
        if at.live() is None:
            raise StorageError(f"no row with key {key!r} in {self.table!r}")
        return at

    def _run(self, db, txn, changes):
        """Steps 2 and 3. A view mid build (its flip reconciles it) or
        quarantined (a rebuild recomputes it) is suppressed unless always
        maintained; a deferred one counts the changes it skips."""
        if not changes:
            return
        building, quarantine = db.online_builds, db.quarantine
        deferred = db.config.maintenance_mode == "deferred"
        views, nets = [], {}
        for binding in self.views:
            view = binding.view
            if building.active and building.is_building(view.name) or (
                quarantine.active and not view.always_maintained
                and quarantine.is_quarantined(view.name)
            ):
                continue
            if not view.always_maintained and (deferred or view.deferred):
                db.deferred.skip(view.name, len(changes))
                continue
            views.append(binding)
            if binding.folds:
                net = nets[view.name] = NetDelta(view.name)
                if binding.fold is not None:
                    for _, before, after, _ in changes:
                        binding.fold(before, after, net)
                    index = db.index(view.name)
                    for key, _ in net.items():  # refuses unorderable keys
                        net.positions[key] = index.locate(key)
        statement = (changes, views, nets)
        for i, change in enumerate(changes):
            actions = [self._base_action(db, txn, change, i)]
            actions += db.maintenance.compile(db, txn, statement, i)
            run_actions(db, txn, actions)
        if db.config.maintenance_mode == "commit_fold":
            # Only now, after every row applied: a statement that waits
            # for a lock re-runs whole, and must fold its deltas once.
            for name, net in nets.items():
                TxnViewDeltas.for_view(txn, name).merge(net)

    def _base_action(self, db, txn, change, i):
        """The base-table action of row change ``i``; an insert's takes
        the table intent and plans its key."""
        key, before, after, at = change
        index, plan = self.index, []
        if before is None:
            kind = "insert"
            txn.acquire(self.table_lock, LockMode.IX)
            if i:  # the statement's earlier rows may have moved its fence
                at = index.locate(key, near=at)
            plan = PLANS[kind](index, key, at, db.config.serializable)
        else:
            kind = "delete" if after is None else "update"

        def apply(d, t):
            if before is None:
                put(d, t, index, key, after, at)
            elif after is None:
                ghost(d, t, index, key, at)
            else:
                patch(d, t, index, key, after, at)
            t.stats.writes += 1
            d.counters.incr("dml." + kind)

        return Action(("base-" + kind, self.table, key), plan, apply)
