"""Aggregate-view maintenance: escrow and exclusive strategies.

This module is the core of the reproduction. A base-table change reaches
an aggregate view as a set of counter deltas on one or two group rows
(:meth:`AggregateView.deltas_for`); how those deltas are applied is the
experiment:

* **ESCROW** (the paper's contribution): take an E lock on the group row
  — compatible with every other transaction's E lock — reserve the deltas
  in the row's escrow accounts (enforcing ``COUNT(*) >= 0`` via the escrow
  test), and log a *logical* :class:`EscrowDeltaRecord`. The row itself is
  untouched until commit, when the transaction's deltas fold into the
  committed values. Groups whose committed count reaches zero are queued
  for the ghost cleaner rather than deleted inline — the deleter cannot
  know whether a concurrent escrow increment is in flight.

* **XLOCK** (the baseline): take an X lock, read the row, write new
  absolute values, log a physical :class:`UpdateRecord`. Correct, simple,
  and a concurrency disaster on hot groups — every writer serializes.

Group creation is identical under both strategies: a new group key needs a
real insert (insert-intent lock on the gap's fence, X on the new key).
An existing *ghost* group is revived in place under an X lock — cheaper
than waiting for cleanup and re-inserting, and it preserves any escrow
account state attached to the key.
"""

from repro.common import CatalogError
from repro.locking.keyrange import (
    locks_for_escrow_update,
    locks_for_insert,
    locks_for_update,
)
from repro.storage.index import stamp
from repro.txn.write import ghost, patch, put
from repro.views.actions import Action
from repro.views.delta import NetDelta, TxnViewDeltas
from repro.wal.records import CounterImageRecord, EscrowDeltaRecord

ESCROW = "escrow"
XLOCK = "xlock"


class AggregateMaintainer:
    """Compiles base-table changes into aggregate-view actions."""

    def __init__(self, strategy=ESCROW):
        if strategy not in (ESCROW, XLOCK):
            raise CatalogError(f"unknown aggregate strategy {strategy!r}")
        self.strategy = strategy

    # ------------------------------------------------------------------
    # statement compilation
    # ------------------------------------------------------------------

    def compile(self, db, txn, view, table, before, after):
        contributions = []
        if before is not None:
            contributions.append((before, -1))
        if after is not None:
            contributions.append((after, +1))
        if view.has_extremes():
            return self._compile_extremes(db, txn, view, contributions)
        return self._compile_deltas(
            db, txn, view,
            [(row, view.deltas_for(row, sign)) for row, sign in contributions],
        )

    def _compile_deltas(self, db, txn, view, contributions):
        """Fold row contributions into net per-group deltas, then compile
        one action per affected group."""
        net = NetDelta(view.name)
        for row, deltas in contributions:
            if deltas is None:
                continue
            net.add(view.group_key_of_base_row(row), deltas)
        if db.config.maintenance_mode == "commit_fold":
            # Accumulate in the transaction; applied at commit.
            target = TxnViewDeltas.for_view(txn, view.name)
            target.merge(net)
            return []
        actions = []
        for group_key, deltas in net.items():
            actions.append(self.compile_group_delta(db, txn, view, group_key, deltas))
        return actions

    def compile_group_delta(self, db, txn, view, group_key, deltas):
        """One action applying ``deltas`` to one group row."""
        index = db.index(view.name)
        record = index.get_record(group_key, include_ghost=True)
        if record is None:
            plan = locks_for_insert(index, group_key, db.config.serializable)
            return Action(
                f"agg-create {view.name}{group_key!r}",
                plan,
                lambda d, t: self._apply_to_new_group(d, t, view, group_key, deltas),
            )
        if record.is_ghost:
            plan = locks_for_update(index, group_key)
            return Action(
                f"agg-revive {view.name}{group_key!r}",
                plan,
                lambda d, t: self._apply_to_ghost_group(d, t, view, group_key, deltas),
            )
        if self.strategy == ESCROW:
            plan = locks_for_escrow_update(index, group_key)
            return Action(
                f"agg-escrow {view.name}{group_key!r}",
                plan,
                lambda d, t: self._apply_escrow(d, t, view, group_key, deltas),
            )
        plan = locks_for_update(index, group_key)
        return Action(
            f"agg-xlock {view.name}{group_key!r}",
            plan,
            lambda d, t: self._apply_xlock(d, t, view, group_key, deltas),
        )

    # ------------------------------------------------------------------
    # apply closures (run with locks held)
    # ------------------------------------------------------------------

    def _apply_to_new_group(self, db, txn, view, group_key, deltas):
        record = put(
            db, txn, db.index(view.name), group_key, view.zero_row(group_key)
        )
        db.counters.incr("agg.group_created")
        if self.strategy == ESCROW:
            # The creator holds X, which covers E: apply deltas through
            # the escrow machinery so commit folding is the single
            # write-back point, consistent with later escrow updates.
            self._apply_escrow(db, txn, view, group_key, deltas, record=record)
        else:
            self._apply_xlock(db, txn, view, group_key, deltas)

    def _apply_to_ghost_group(self, db, txn, view, group_key, deltas):
        record = put(  # revives in place
            db, txn, db.index(view.name), group_key, view.zero_row(group_key)
        )
        db.counters.incr("agg.ghost_revived")
        if self.strategy == ESCROW:
            self._apply_escrow(db, txn, view, group_key, deltas, record=record)
        else:
            self._apply_xlock(db, txn, view, group_key, deltas)

    def _apply_escrow(self, db, txn, view, group_key, deltas, record=None):
        """Reserve deltas in escrow accounts and log the logical record.

        Also used by the XLOCK-created/revived group paths (the holder's X
        covers E) so that commit folding is the single write-back point.
        """
        index = db.index(view.name)
        if record is None:
            record = index.get_record(group_key)
        for column, amount in deltas.items():
            if amount == 0:
                continue
            resource = (view.name, group_key, column)
            low, high = view.bounds_for(column)
            account = db.escrow.account(
                resource,
                initial=record.current_row[column],
                low_bound=low,
                high_bound=high,
            )
            account.reserve(txn.txn_id, amount)
            txn.touch_escrow(resource, account)
        if db.config.counter_logging == "physical":
            # The unsound ablation benchmark R4 measures: log the counter
            # update as before/after images *as this transaction predicts
            # them*. Under concurrent escrow holders the images interleave
            # and recovery's before-image undo corrupts committed deltas.
            before = record.current_row
            after = before.replace(
                **{c: before[c] + d for c, d in deltas.items()}
            )
            lsn = db.log.append(
                CounterImageRecord(txn.txn_id, view.name, group_key, before, after)
            )
        else:
            lsn = db.log.append(
                EscrowDeltaRecord(txn.txn_id, view.name, group_key, deltas)
            )
        if lsn is not None:
            # the reserve moved what the row's image holds (its pending
            # deltas): stamp it, as of the record that says so
            stamp(index, record, lsn)
        txn.touch_record(record)
        txn.stats.view_maintenances += 1
        db.counters.incr("agg.escrow_applied")

    def _apply_xlock(self, db, txn, view, group_key, deltas):
        index = db.index(view.name)
        before = index.get_row(group_key)
        after = before.replace(**{c: before[c] + d for c, d in deltas.items()})
        patch(db, txn, index, group_key, after)
        txn.stats.view_maintenances += 1
        db.counters.incr("agg.xlock_applied")
        if after[view.count_column] == 0:
            # The X holder knows the group is empty: ghost it inline.
            ghost(db, txn, index, group_key)
            db.counters.incr("agg.group_emptied_inline")

    # ------------------------------------------------------------------
    # MIN/MAX (extreme) views — the non-commutative extension
    # ------------------------------------------------------------------
    #
    # Extremes are not deltas: they need the contributing row's actual
    # values, so contributions are never net-folded (and never deferred
    # to commit). Every contribution takes an X lock on the group row —
    # which is exactly why SQL Server's indexed views exclude MIN/MAX and
    # why this engine treats them as an opt-in extension: one MIN column
    # re-serializes all writers of the group.
    #
    # Deleting the current extreme forces a rescan of the group's base
    # rows. The rescan runs without base-row locks: every writer of this
    # group must hold the group's view-row lock before mutating base rows
    # (the lock-first/mutate-second discipline), so our X on the view row
    # guarantees no other transaction has uncommitted changes in the
    # group.

    def _compile_extremes(self, db, txn, view, contributions):
        actions = []
        for row, sign in contributions:
            if not view.relevant(row):
                continue
            group_key = view.group_key_of_base_row(row)
            index = db.index(view.name)
            record = index.get_record(group_key, include_ghost=True)
            if record is None:
                plan = locks_for_insert(index, group_key, db.config.serializable)
                kind = "create"
            elif record.is_ghost:
                plan = locks_for_update(index, group_key)
                kind = "revive"
            else:
                plan = locks_for_update(index, group_key)
                kind = "apply"
            actions.append(
                Action(
                    f"agg-extreme-{kind} {view.name}{group_key!r}",
                    plan,
                    self._make_extreme_apply(view, group_key, row, sign),
                )
            )
        return actions

    def _make_extreme_apply(self, view, group_key, row, sign):
        def apply(db, txn):
            self._apply_extreme_contribution(db, txn, view, group_key, row, sign)

        return apply

    def _apply_extreme_contribution(self, db, txn, view, group_key, row, sign):
        index = db.index(view.name)
        record = index.get_record(group_key, include_ghost=True)
        if record is None or record.is_ghost:
            db.counters.incr(
                "agg.group_created" if record is None else "agg.ghost_revived"
            )
            record = put(db, txn, index, group_key, view.zero_row(group_key))
        before = record.current_row
        changes = {
            spec.out: before[spec.out] + spec.delta_for(row, sign)
            for spec in view.counter_specs
        }
        new_count = changes[view.count_column]
        if sign > 0:
            for spec in view.extreme_specs:
                changes[spec.out] = spec.fold_extreme(
                    before[spec.out], row[spec.source]
                )
        elif new_count == 0:
            for spec in view.extreme_specs:
                changes[spec.out] = None
        else:
            hit_extreme = any(
                before[spec.out] == row[spec.source]
                for spec in view.extreme_specs
            )
            if hit_extreme:
                changes.update(self._rescan_extremes(db, view, group_key))
                db.counters.incr("agg.extreme_rescans")
        after = before.replace(**changes)
        patch(db, txn, index, group_key, after)
        txn.stats.view_maintenances += 1
        db.counters.incr("agg.extreme_applied")
        if new_count == 0:
            ghost(db, txn, index, group_key)
            db.counters.incr("agg.group_emptied_inline")

    def _rescan_extremes(self, db, view, group_key):
        """Recompute MIN/MAX over the group's remaining base rows.

        Runs after the base mutation has been applied, so it sees the
        post-statement truth. Cost: a full scan of the base table — the
        price of non-delta-maintainable aggregates.
        """
        base_index = db.index(view.base)
        values = {spec.out: None for spec in view.extreme_specs}
        for base_row in base_index.rows():
            if not view.relevant(base_row):
                continue
            if view.group_key_of_base_row(base_row) != group_key:
                continue
            for spec in view.extreme_specs:
                values[spec.out] = spec.fold_extreme(
                    values[spec.out], base_row[spec.source]
                )
        return values
