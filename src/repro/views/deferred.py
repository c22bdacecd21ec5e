"""Deferred view maintenance — the baseline immediate maintenance beats.

A deferred view is not maintained by the statements that change its
base tables: their write plan (:mod:`repro.views.maintenance`) skips it
and counts the skipped row changes here. Readers see it stale until
:meth:`DeferredMaintainer.refresh` brings it up to date with the one
reconcile (:func:`repro.views.online.bring_up_to_date`): S on its base
tables, X on its indexes, then a diff against recomputation. A refresh
therefore needs quiet base tables — an open writer makes it raise the
lock error — and applies exactly what committed.

Staleness is observable: :meth:`pending_count` (statement changes
skipped since the last refresh, including ones later rolled back or
re-run) and :meth:`staleness_ticks` (age of the first of them) feed
experiment R6.
"""

from repro.views.online import bring_up_to_date


class DeferredMaintainer:
    """Per deferred view, one ``[first skipped tick, skipped changes]``
    pair since its last refresh."""

    def __init__(self, clock):
        self._clock = clock
        self._skipped = {}

    def skip(self, view_name, changes=1):
        """Count ``changes`` row changes the view was not maintained for."""
        skipped = self._skipped.get(view_name)
        if skipped is None:
            self._skipped[view_name] = [self._clock.now(), changes]
        else:
            skipped[1] += changes

    def pending_count(self, view_name=None):
        if view_name is not None:
            return self._skipped.get(view_name, (0, 0))[1]
        return sum(count for _, count in self._skipped.values())

    def staleness_ticks(self, view_name):
        """Clock age of the first skipped change (0 when fresh)."""
        skipped = self._skipped.get(view_name)
        return 0 if skipped is None else self._clock.now() - skipped[0]

    def refresh(self, db, view_name):
        """Bring ``view_name`` up to date in one system transaction;
        returns the number of corrections applied."""
        view = db.catalog.view(view_name)
        _, corrections = bring_up_to_date(db, view)
        self._skipped.pop(view.name, None)
        return corrections

    def refresh_all(self, db):
        """Refresh every view with skipped changes; returns the total
        number of corrections."""
        return sum(self.refresh(db, name) for name in sorted(self._skipped))
