"""The maintenance engine: dispatch base-table changes to view maintainers.

Given one base-table change (insert / delete / update with before+after
images), :meth:`MaintenanceEngine.compile` produces the list of view
maintenance :class:`~repro.views.actions.Action` objects for every view
defined over that table, honouring the database's maintenance mode:

* ``immediate`` — actions run inside the user statement (the paper's
  indexed views);
* ``commit_fold`` — aggregate deltas accumulate per transaction and apply
  just before the commit record (experiment R10); non-aggregate views are
  still maintained immediately (folding row-level inserts buys nothing);
* ``deferred`` — changes queue in the deferred maintainer and the views
  drift stale until refreshed (experiment R6's baseline).
"""

from repro.views.aggregate import AggregateMaintainer
from repro.views.join import JoinMaintainer
from repro.views.join_aggregate import JoinAggregateMaintainer
from repro.views.projection import ProjectionMaintainer


class MaintenanceEngine:
    """Routes base-table deltas to per-view-kind maintainers, which all
    answer ``compile(db, txn, view, table, op, before, after)``."""

    def __init__(self, catalog, aggregate_strategy="escrow", deferred=None):
        self._catalog = catalog
        self.aggregate = AggregateMaintainer(strategy=aggregate_strategy)
        self._maintainers = {
            "aggregate": self.aggregate,
            "join": JoinMaintainer(),
            "join_aggregate": JoinAggregateMaintainer(self.aggregate),
            "projection": ProjectionMaintainer(),
        }
        self.deferred = deferred  # a DeferredMaintainer, or None
        #: optional predicate(view_name) -> bool; True pauses maintenance
        #: for that view (set to the quarantine check by Database — a
        #: quarantined view's contents will be rebuilt wholesale, so
        #: incrementally maintaining damaged state is wasted and risky)
        self.suppressed = None

    def compile(self, db, txn, table, op, before=None, after=None):
        """Actions maintaining every view over ``table`` for one change.

        ``op`` is ``"insert"`` (after set), ``"delete"`` (before set) or
        ``"update"`` (both set).
        """
        actions = []
        for view in self._catalog.views_on(table):
            if self.suppressed is not None and self.suppressed(view.name):
                continue
            deferred = (
                db.config.maintenance_mode == "deferred"
                or getattr(view, "deferred", False)
            )
            if deferred and self.deferred is not None:
                self.deferred.enqueue(view, table, op, before, after)
                continue
            actions.extend(
                self.compile_view(db, txn, view, table, op, before, after)
            )
        return actions

    def compile_view(self, db, txn, view, table, op, before, after):
        """Actions maintaining ``view`` alone for one change, suppressed
        or deferred or not — what a deferred refresh and an online
        build's catch-up replay."""
        return self._maintainers[view.kind].compile(
            db, txn, view, table, op, before, after
        )
