"""Versioned records with ghost support.

A :class:`VersionedRecord` is what the B-tree actually stores. It carries:

* the **current** row and ghost flag — the state seen by lock-protected
  readers and writers;
* a **version history** of committed states, appended at commit time and
  consulted by snapshot (multi-version) readers;
* a **ghost flag** — a logically deleted record that still occupies its
  key. Ghosts are how the engine deletes under escrow locking: a
  transaction that decrements ``COUNT(*)`` to (possibly) zero cannot remove
  the key outright, because a concurrent escrow transaction may have an
  uncommitted increment on it. Instead the row is marked ghost and a system
  transaction erases it later, after verifying the count really is zero and
  no transaction holds it (Graefe & Zwilling's "deferred deletion"). A
  re-insert before then revives the ghost in place — required under
  escrow locking: the ghost may still carry escrow state;
* an **escrow slot** — ``None``, or the pending deltas in-flight
  transactions hold on an aggregate group's counters
  (:mod:`repro.locking.escrow`); the committed counters are the row.

The record does not know about locks — callers are responsible for holding
the right locks before touching ``current_row``.
"""


from repro.common import StorageError


class Version:
    """One committed state of a record.

    ``row`` is ``None`` when the committed state is "deleted" (the record
    did not logically exist as of ``commit_ts``).
    """

    __slots__ = ("commit_ts", "row", "is_ghost")

    def __init__(self, commit_ts, row, is_ghost=False):
        self.commit_ts = commit_ts
        self.row = row
        self.is_ghost = is_ghost

    def __repr__(self):
        return f"Version(ts={self.commit_ts}, ghost={self.is_ghost}, row={self.row!r})"


class VersionedRecord:
    """A record slot in an index: current state plus committed history,
    and ``lsn``, the log record that last changed it (what its leaf's
    image stamps it with, ``docs/STORAGE.md`` §4). ``packed`` keeps the
    entry bytes a write-back last made for it, which the next write-back
    reuses while ``lsn`` has not moved. ``escrow`` is the escrow slot.

    The newest committed version lives in the record itself
    (``committed_ts``, ``None`` before the first commit, with its row
    and ghost flag); only the older ones open snapshots still need are
    :class:`Version` objects, in ``_older`` (oldest first). Most records
    have one version, and so no version object at all.
    """

    __slots__ = (
        "key", "current_row", "is_ghost", "lsn", "packed", "escrow",
        "committed_ts", "_committed_row", "_committed_ghost", "_older",
    )

    def __init__(self, key, row, is_ghost=False, lsn=0):
        self.key = key
        self.current_row = row
        self.is_ghost = is_ghost
        self.lsn = lsn
        self.packed = None
        self.escrow = None
        self.committed_ts = None
        self._committed_row = None
        self._committed_ghost = False
        self._older = None

    def __repr__(self):
        flag = " ghost" if self.is_ghost else ""
        return f"VersionedRecord(key={self.key!r}{flag}, row={self.current_row!r})"

    # -- version management -------------------------------------------

    def stamp_version(self, commit_ts, horizon=None):
        """Record the current state as committed at ``commit_ts``.

        Called by the transaction manager when a transaction that modified
        this record commits. Versions must be stamped in non-decreasing
        timestamp order; a re-stamp at the same timestamp replaces the
        previous one (several writes by one transaction fold into one
        version). Given the snapshot ``horizon``, the versions no snapshot
        can see go at once (:meth:`prune_versions`), so a chain holds the
        versions open snapshots need and no more.
        """
        newest = self.committed_ts
        if newest is not None and newest != commit_ts:
            if newest > commit_ts:
                raise StorageError(
                    f"version timestamps must be monotonic: "
                    f"{newest} > {commit_ts}"
                )
            if horizon is not None and commit_ts <= horizon:
                # no snapshot can see any state older than this one
                self._older = None
            else:
                version = Version(
                    newest, self._committed_row, self._committed_ghost
                )
                if self._older is None:
                    self._older = [version]
                else:
                    self._older.append(version)
        self.committed_ts = commit_ts
        self._committed_row = self.current_row
        self._committed_ghost = self.is_ghost
        if horizon is not None and self._older is not None:
            self.prune_versions(horizon)

    def read_as_of(self, ts):
        """Return the row committed at the latest timestamp <= ``ts``.

        Returns ``None`` when the record did not (visibly) exist at ``ts``
        — either no version is old enough or the visible version is a
        ghost. Readers mostly ask for recent states: search newest-first.
        """
        newest = self.committed_ts
        if newest is None:
            return None
        if newest <= ts:
            return None if self._committed_ghost else self._committed_row
        for version in reversed(self._older or ()):
            if version.commit_ts <= ts:
                return None if version.is_ghost else version.row
        return None

    def version_count(self):
        if self.committed_ts is None:
            return 0
        return 1 + len(self._older or ())

    def prune_versions(self, horizon_ts):
        """Drop versions no snapshot older than ``horizon_ts`` can see.

        Keeps the newest version at or below the horizon (it is still the
        visible version for snapshots at the horizon) plus everything
        newer. Returns the number of versions dropped.
        """
        older = self._older
        if not older:
            return 0
        if self.committed_ts <= horizon_ts:
            self._older = None
            return len(older)
        keep_from = 0
        for i, version in enumerate(older):
            if version.commit_ts <= horizon_ts:
                keep_from = i
            else:
                break
        if keep_from:
            del older[:keep_from]
        return keep_from
