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
  escrow locking: the ghost may still carry escrow state.

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
    reuses while ``lsn`` has not moved."""

    __slots__ = ("key", "current_row", "is_ghost", "lsn", "packed", "_versions")

    def __init__(self, key, row, is_ghost=False, lsn=0):
        self.key = key
        self.current_row = row
        self.is_ghost = is_ghost
        self.lsn = lsn
        self.packed = None
        self._versions = []

    def __repr__(self):
        flag = " ghost" if self.is_ghost else ""
        return f"VersionedRecord(key={self.key!r}{flag}, row={self.current_row!r})"

    # -- version management -------------------------------------------

    def stamp_version(self, commit_ts):
        """Record the current state as committed at ``commit_ts``.

        Called by the transaction manager when a transaction that modified
        this record commits. Versions must be stamped in non-decreasing
        timestamp order; a re-stamp at the same timestamp replaces the
        previous one (several writes by one transaction fold into one
        version).
        """
        if self._versions and self._versions[-1].commit_ts > commit_ts:
            raise StorageError(
                f"version timestamps must be monotonic: "
                f"{self._versions[-1].commit_ts} > {commit_ts}"
            )
        version = Version(commit_ts, self.current_row, self.is_ghost)
        if self._versions and self._versions[-1].commit_ts == commit_ts:
            self._versions[-1] = version
        else:
            self._versions.append(version)

    def read_as_of(self, ts):
        """Return the row committed at the latest timestamp <= ``ts``.

        Returns ``None`` when the record did not (visibly) exist at ``ts``
        — either no version is old enough or the visible version is a
        ghost.
        """
        visible = None
        for version in self._versions:
            if version.commit_ts <= ts:
                visible = version
            else:
                break
        if visible is None or visible.is_ghost:
            return None
        return visible.row

    def latest_committed(self):
        """The most recent committed version, or ``None``."""
        return self._versions[-1] if self._versions else None

    def version_count(self):
        return len(self._versions)

    def prune_versions(self, horizon_ts):
        """Drop versions no snapshot older than ``horizon_ts`` can see.

        Keeps the newest version at or below the horizon (it is still the
        visible version for snapshots at the horizon) plus everything
        newer. Returns the number of versions dropped.
        """
        if not self._versions:
            return 0
        keep_from = 0
        for i, version in enumerate(self._versions):
            if version.commit_ts <= horizon_ts:
                keep_from = i
            else:
                break
        dropped = keep_from
        if dropped:
            del self._versions[:keep_from]
        return dropped
