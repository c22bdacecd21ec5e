"""Aggregate-view maintenance: escrow and exclusive strategies.

This module is the core of the reproduction. A statement reaches an
aggregate view as counter deltas folded per group row over all of its
row changes (:func:`counter_fold`, the write plan's fold); how one
group's deltas are applied is the experiment:

* **ESCROW** (the paper's contribution): take an E lock on the group row
  — compatible with every other transaction's E lock — reserve the deltas
  in the row record's escrow slot (enforcing ``COUNT(*) >= 0`` via the
  escrow test), and log a *logical* :class:`EscrowDeltaRecord`. The row
  itself is untouched until commit, when the transaction's deltas fold
  into the committed values. Groups whose committed count reaches zero
  are queued for the ghost cleaner rather than deleted inline — the
  deleter cannot know whether a concurrent escrow increment is in flight.

* **XLOCK** (the baseline): take an X lock, read the row, write new
  absolute values, log a physical :class:`UpdateRecord`. Correct, simple,
  and a concurrency disaster on hot groups — every writer serializes.

Group creation is identical under both strategies: a new group key needs a
real insert (insert-intent lock on the gap's fence, X on the new key).
An existing *ghost* group is revived in place under an X lock — cheaper
than waiting for cleanup and re-inserting, and it preserves any escrow
state the record carries.
"""

from repro.common import CatalogError
from repro.locking import escrow
from repro.locking.keyrange import PLANS, LockEntry
from repro.query.aggregates import AggFunc
from repro.txn.write import ghost, patch, put
from repro.views.actions import Action, Binding, same_locks
from repro.wal.records import CounterImageRecord, EscrowDeltaRecord

ESCROW = "escrow"
XLOCK = "xlock"
#: a MIN/MAX group row's verbs: every contribution changes it under X
EXTREME_VERBS = ("create", "revive", "apply")


def counter_fold(view):
    """``fold(before, after, net)``: add one row change's counter deltas
    — ``before``'s with −1, ``after``'s with +1, either may be ``None``
    — to ``net``; group key and delta functions worked out once."""
    group_by, where = view.group_by, view.where
    terms = [(spec.out, _delta_function(spec)) for spec in view.counter_specs]

    def fold(before, after, net):
        for row, sign in ((before, -1), (after, 1)):
            if row is not None and (where is None or where(row)):
                net.add(
                    row.key(group_by),
                    {out: delta(row, sign) for out, delta in terms},
                )

    return fold


def _delta_function(spec):
    """``delta(row, sign)`` of one COUNT/SUM column (see
    :meth:`~repro.query.aggregates.AggregateSpec.delta_for`)."""
    if spec.func is AggFunc.COUNT:
        return lambda row, sign: sign
    if spec.coeffs is None:
        source = spec.source
        return lambda row, sign: sign * row[source]
    return spec.delta_for


class AggregateMaintainer:
    """Compiles folded group deltas (and MIN/MAX rows) into
    aggregate-view actions."""

    def __init__(self, strategy=ESCROW):
        if strategy not in (ESCROW, XLOCK):
            raise CatalogError(f"unknown aggregate strategy {strategy!r}")
        self.strategy = strategy
        #: a group row's verbs by its state: absent, ghost, live
        self.group_verbs = ("create", "revive", strategy)

    def bind(self, view, table):
        """The view's place in ``table``'s write plan: its counters fold
        per statement; MIN/MAX columns are compiled row by row."""
        if view.has_extremes():
            return Binding(
                view, table, same_locks(self.group_entry(view, EXTREME_VERBS)),
                self._compile_extremes,
            )
        return Binding(view, table, same_locks(self.group_entry(view)),
                       fold=counter_fold(view), folds=True)

    def group_entry(self, view, verbs=None):
        """The lock a change takes on one of ``view``'s group rows: a new
        group is created (its gap's fence, then X), a ghost revived (X), a
        live one changed — E under escrow, X under xlock or for MIN/MAX."""
        return LockEntry("write", view.name, "<group>",
                         verbs or self.group_verbs)

    # ------------------------------------------------------------------
    # one group's folded deltas
    # ------------------------------------------------------------------

    def compile_group_delta(self, db, txn, view, group_key, deltas, at=None):
        """One action applying ``deltas`` to one group row. ``at`` is the
        group's :class:`~repro.storage.index.Position` when the statement
        has located it; the plan, the write and the escrow stamp all read
        it."""
        index = db.index(view.name)
        if at is None:
            at = index.locate(group_key)
        record = at.record
        create, revive, change = self.group_verbs
        verb = create if record is None else (
            revive if record.is_ghost else change
        )
        plan = PLANS[verb](index, group_key, at, db.config.serializable)
        return Action(
            ("agg-" + verb, view.name, group_key), plan,
            lambda d, t: self._apply(d, t, view, index, at, deltas),
        )

    def _apply(self, db, txn, view, index, at, deltas):
        """With the plan held: create or revive the group row, then apply
        the deltas — through escrow under ESCROW even then (the creator's
        X covers E): commit folding is the single write-back point."""
        record = at.record
        if record is None or record.is_ghost:
            db.counters.incr(
                "agg.group_created" if record is None else "agg.ghost_revived"
            )
            record = put(db, txn, index, at.key, view.zero_row(at.key), at)
        if self.strategy == ESCROW:
            self._apply_escrow(db, txn, view, index, at, deltas, record)
        else:
            self._apply_xlock(db, txn, view, index, at, deltas)

    def _apply_escrow(self, db, txn, view, index, at, deltas, record):
        """Reserve the deltas on the group's record — all of them or, when
        one fails its escrow test, none — and log the logical record."""
        group_key = at.key
        escrow.reserve(record, view, txn.txn_id, deltas)
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
                CounterImageRecord(
                    txn.txn_id, index.layout, group_key, before, after
                )
            )
        else:
            lsn = db.log.append(
                EscrowDeltaRecord(txn.txn_id, index.layout, group_key, deltas)
            )
        if lsn is not None:
            # the reserve moved what the row's image holds (its pending
            # deltas): stamp it, as of the record that says so
            index.stamp(record, lsn, at)
        txn.touch_record(record)
        txn.stats.view_maintenances += 1
        db.counters.incr("agg.escrow_applied")

    def _apply_xlock(self, db, txn, view, index, at, deltas):
        before = at.live().current_row
        after = before.replace(**{c: before[c] + d for c, d in deltas.items()})
        patch(db, txn, index, at.key, after, at)
        txn.stats.view_maintenances += 1
        db.counters.incr("agg.xlock_applied")
        if after[view.count_column] == 0:
            # The X holder knows the group is empty: ghost it inline.
            ghost(db, txn, index, at.key, at)
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

    def _compile_extremes(self, db, txn, view, table, before, after, net):
        actions = []
        index = db.index(view.name)
        for row, sign in ((before, -1), (after, +1)):
            if row is None or not view.relevant(row):
                continue
            group_key = view.group_key_of_base_row(row)
            at = index.locate(group_key)
            create, revive, change = EXTREME_VERBS
            verb = create if at.record is None else (
                revive if at.record.is_ghost else change
            )
            actions.append(Action(
                ("agg-extreme-" + verb, view.name, group_key),
                PLANS[verb](index, group_key, at, db.config.serializable),
                lambda d, t, key=group_key, row=row, sign=sign: (
                    self._apply_extreme_contribution(d, t, view, key, row, sign)
                ),
            ))
        return actions

    def _apply_extreme_contribution(self, db, txn, view, group_key, row, sign):
        # Read afresh: an UPDATE's two contributions may share the group.
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
