"""The maintenance engine: dispatch base-table changes to view maintainers.

Given one base-table change — its before and after images, either
``None`` for an insert or a delete — :meth:`MaintenanceEngine.compile`
produces the list of view maintenance
:class:`~repro.views.actions.Action` objects for every view defined over
that table, honouring the database's maintenance mode:

* ``immediate`` — actions run inside the user statement (the paper's
  indexed views);
* ``commit_fold`` — aggregate deltas accumulate per transaction and apply
  just before the commit record (experiment R10); non-aggregate views are
  still maintained immediately (folding row-level inserts buys nothing);
* ``deferred`` — the views are skipped (the deferred maintainer counts
  the skip) and drift stale until refreshed (experiment R6's baseline).

A view that is ``always_maintained`` (a secondary index) ignores the
mode and runs immediately.
"""

from repro.views.aggregate import AggregateMaintainer
from repro.views.join import JoinMaintainer
from repro.views.join_aggregate import JoinAggregateMaintainer
from repro.views.projection import ProjectionMaintainer


class MaintenanceEngine:
    """Routes base-table deltas to per-view-kind maintainers, which all
    answer ``compile(db, txn, view, table, before, after)``."""

    def __init__(self, catalog, aggregate_strategy="escrow"):
        self._catalog = catalog
        self.aggregate = AggregateMaintainer(strategy=aggregate_strategy)
        self._maintainers = {
            "aggregate": self.aggregate,
            "join": JoinMaintainer(),
            "join_aggregate": JoinAggregateMaintainer(self.aggregate),
            "projection": ProjectionMaintainer(),
        }
        #: optional predicate(view) -> bool; True pauses maintenance for
        #: that view (set by Database: views mid build and quarantined
        #: views — a quarantined view's contents will be rebuilt
        #: wholesale, so incrementally maintaining damaged state is
        #: wasted and risky)
        self.suppressed = None

    def compile(self, db, txn, table, before=None, after=None):
        """Actions maintaining every view over ``table`` for one change:
        ``after`` alone is an insert, ``before`` alone a delete, both an
        update."""
        actions = []
        for view in self._catalog.views_on(table):
            if self.suppressed is not None and self.suppressed(view):
                continue
            if not view.always_maintained and (
                db.config.maintenance_mode == "deferred" or view.deferred
            ):
                db.deferred.skip(view.name)
                continue
            actions.extend(self._maintainers[view.kind].compile(
                db, txn, view, table, before, after
            ))
        return actions
