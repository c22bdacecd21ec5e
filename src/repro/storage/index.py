"""A ghost-aware index: B+-tree of versioned records.

:class:`Index` is the storage object tables and indexed views are made of.
It wraps a :class:`~repro.storage.btree.BPlusTree` whose values are
:class:`~repro.storage.records.VersionedRecord` instances and adds the
semantics the maintenance and locking layers need:

* **one mutator**, :meth:`Index.set_entry`: a slot is ``(row, is_ghost)``
  or absent, and every change — insert, update, ghosting (a logical
  delete keeps the key), revival, the cleaner's physical removal, redo
  and undo of each — assigns it. Only :mod:`repro.txn.write` and the
  recovery target call it (the ``logged-write`` lint rule);
* scans skip ghosts by default but can include them (the cleaner, and
  key-range locking, need to see them: a ghost still defines a lockable
  key separating two gaps);
* a registry of ghost keys, kept in step by the mutator;
* **one descent per touched key**: :meth:`Index.locate` returns a
  :class:`Position` — the key's leaf, the record there and the gap fence
  — which the duplicate check, the lock plan, the write and the escrow
  stamp of one statement all read instead of descending again.

With ``pages`` (the engine's :class:`~repro.storage.bufferpool.BufferPool`)
the tree's leaves are pages: every record carries the LSN of the last log
record that changed it, and a change marks its leaf dirty — the mutator
with its ``lsn`` argument, an escrow reserve or unreserve through
:meth:`Index.stamp`. Nothing is packed until the pool writes a leaf back.
"""

from repro.common import StorageError
from repro.common.keys import KeyRange
from repro.storage.btree import BPlusTree
from repro.storage.records import VersionedRecord


class Position:
    """Where one descent found ``key``: its ``leaf``, the ``record``
    there (ghosts included; ``None`` if absent) and the gap ``fence`` —
    the smallest key at or above ``key``, ``None`` past the last.

    A position keeps its leaf, not a slot: the writes that take one
    re-bisect inside the leaf, and descend afresh once the tree's
    ``shape`` has moved (a split, borrow, merge or raised separator since
    :meth:`Index.locate`).
    ``record`` and ``fence`` say what the index held when it was located
    (an insert through the position records its new record there); a
    statement locates a key again (``locate(key, near=position)``, a
    re-bisect) when its own earlier writes may have moved them.
    """

    __slots__ = ("key", "leaf", "shape", "record", "fence")

    def __init__(self, key, leaf, shape, record, fence):
        self.key = key
        self.leaf = leaf
        self.shape = shape
        self.record = record
        self.fence = fence

    def live(self):
        """The live record at the key, or ``None`` (absent or ghost)."""
        record = self.record
        return None if record is None or record.is_ghost else record


class Index:
    """An ordered, ghost-aware collection of versioned records.

    When a ``latch_set`` is supplied, every operation runs the real latch
    protocol against the index's tree latch — shared for lookups and
    scans, exclusive for structural changes. The engine is single-
    threaded (concurrency is simulated above the storage layer), so
    latches cannot be *contended* here, but the acquire/release pairing
    is executed and asserted, and the acquisition counts feed the
    benchmarks as a proxy for physical-structure traffic.
    """

    def __init__(self, name, key_columns, order=32, unique=True, latch_set=None,
                 pages=None):
        self.name = name
        self.key_columns = tuple(key_columns)
        self.unique = unique
        self._tree = BPlusTree(order=order, pages=pages, name=name)
        self._pages = pages
        self._ghost_keys = set()
        self._latch = (
            latch_set.get(f"tree:{name}") if latch_set is not None else None
        )

    def _latched(self, fn, exclusive=False):
        latch = self._latch
        if latch is None:
            return fn()
        if exclusive:
            latch.acquire_exclusive(self.name)
        else:
            latch.acquire_shared(self.name)
        try:
            return fn()
        finally:
            latch.release(self.name)

    def __len__(self):
        """Number of live (non-ghost) records."""
        return len(self._tree) - len(self._ghost_keys)

    def __contains__(self, key):
        record = self._tree.get(key)
        return record is not None and not record.is_ghost

    def total_entries(self):
        """Number of slots including ghosts."""
        return len(self._tree)

    def ghost_count(self):
        return len(self._ghost_keys)

    def key_of(self, row):
        """Extract this index's key from ``row``."""
        return row.key(self.key_columns)

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------

    def get_record(self, key, include_ghost=False):
        """The record at ``key``; ``None`` if absent (or ghost, unless
        ``include_ghost``)."""
        record = self._latched(lambda: self._tree.get(key))
        if record is None:
            return None
        if record.is_ghost and not include_ghost:
            return None
        return record

    def get_row(self, key):
        """The live row at ``key``, or ``None``."""
        record = self.get_record(key)
        return record.current_row if record is not None else None

    def locate(self, key, near=None):
        """One descent to ``key``: its :class:`Position`. With ``near``,
        an earlier position of the same key, only a re-bisect of its leaf
        while the tree keeps its shape. A key this index cannot order
        against the keys it holds (a string among integers, ``NULL``
        among values) is refused with :class:`~repro.common.StorageError`
        — here, before anything is locked, logged or changed."""
        tree, latch = self._tree, self._latch
        if latch is not None:
            latch.acquire_shared(self.name)
        try:
            leaf = self._leaf_of(near) or tree.seek(key)
            return Position(key, leaf, tree.shape, *tree.slot(leaf, key))
        except TypeError:
            raise StorageError(
                f"index {self.name!r} cannot order key {key!r} against "
                f"the keys it holds"
            ) from None
        finally:
            if latch is not None:
                latch.release(self.name)

    def _leaf_of(self, at):
        """``at``'s leaf while the tree keeps the shape it was found at."""
        if at is not None and at.shape == self._tree.shape:
            return at.leaf
        return None

    # ------------------------------------------------------------------
    # the one mutator
    # ------------------------------------------------------------------

    def set_entry(self, key, entry, lsn=None, at=None):
        """Make the slot at ``key`` be ``entry``: ``None`` (no slot) or
        ``(row, is_ghost)``. Returns the record (for ``None``, the one
        removed, if any). An occupied slot is assigned in place: the
        record object, its version history and the escrow accounts keyed
        on it survive a ghosting, a revival and an update alike. One
        descent either way — none with ``at``, the key's
        :class:`Position`, while its leaf is still the key's. ``lsn`` is
        the log record that makes the change: the record is stamped with
        it and its leaf marked dirty.
        """

        def assign():
            if entry is None:
                self._ghost_keys.discard(key)
                return self._tree.pop(key, None, lsn)
            row, is_ghost = entry
            fresh = VersionedRecord(key, row, is_ghost, lsn or 0)
            record = self._tree.setdefault(key, fresh, lsn, self._leaf_of(at))
            if record is not fresh:
                record.current_row = row
                record.is_ghost = is_ghost
                if lsn is not None:
                    record.lsn = lsn
            if is_ghost:
                self._ghost_keys.add(key)
            else:
                self._ghost_keys.discard(key)
            return record

        record = self._latched(assign, exclusive=True)
        if lsn is not None and self._pages is not None:
            self._pages.write_excess()  # the change is whole: a leaf may go
        return record

    def stamp(self, record, lsn, at=None):
        """The log record at ``lsn`` changed what ``record`` must be
        written back as without assigning its slot — an escrow reserve or
        unreserve moves the pending deltas its image includes
        (``docs/STORAGE.md`` §4 rule (a)), a redone delta adds to its row.
        Stamps the record and marks its leaf dirty — ``at``'s leaf while
        the tree keeps its shape; while the pool tracks nothing
        (recovery), without a descent."""
        record.lsn = lsn
        pages = self._pages
        if pages is not None and pages.store is not None:
            self._tree.touch(record.key, lsn, self._leaf_of(at))
            pages.write_excess()

    def is_ghost(self, key):
        """True when a ghost occupies ``key`` (registry lookup, no descent)."""
        return key in self._ghost_keys

    # ------------------------------------------------------------------
    # scans and navigation
    # ------------------------------------------------------------------

    def scan(self, key_range=None, include_ghosts=False):
        """Iterate ``(key, record)`` pairs in key order over ``key_range``
        (default: everything).

        Scans are not tree-latched: a real engine latches leaf-at-a-time
        and releases between leaves, which a Python generator cannot
        express without holding the latch across arbitrary caller code.
        Transactional protection comes from the key-range locks above.
        """
        if key_range is None:
            key_range = KeyRange.all()
        for key, record in self._tree.range_items(key_range):
            if record.is_ghost and not include_ghosts:
                continue
            yield key, record

    def rows(self, key_range=None):
        """Iterate live rows in key order."""
        for _, record in self.scan(key_range):
            yield record.current_row

    def next_key(self, key, inclusive=False, include_ghosts=True):
        """The neighbouring key above ``key``.

        Ghosts are included by default because key-range locking treats a
        ghost as a real fence post: the gap on either side of it is a
        distinct lockable unit.
        """
        candidate = self._tree.next_key(key, inclusive=inclusive)
        if include_ghosts:
            return candidate
        while candidate is not None:
            record = self._tree.get(candidate)
            if not record.is_ghost:
                return candidate
            candidate = self._tree.next_key(candidate)
        return None

    def prev_key(self, key, inclusive=False, include_ghosts=True):
        """The neighbouring key below ``key`` (see :meth:`next_key`)."""
        candidate = self._tree.prev_key(key, inclusive=inclusive)
        if include_ghosts:
            return candidate
        while candidate is not None:
            record = self._tree.get(candidate)
            if not record.is_ghost:
                return candidate
            candidate = self._tree.prev_key(candidate)
        return None

    def leaves(self):
        """The tree's leaves in key order: the index's pages."""
        return self._tree.leaves()

    def first_key(self):
        return self._tree.first_key()

    def last_key(self):
        return self._tree.last_key()

    def check_invariants(self):
        """Structural check plus ghost-registry consistency."""
        self._tree.check_invariants()
        actual_ghosts = {
            key for key, rec in self._tree.items() if rec.is_ghost
        }
        if actual_ghosts != self._ghost_keys:
            raise StorageError(
                f"ghost registry out of sync in index {self.name!r}: "
                f"registry={sorted(self._ghost_keys)!r} actual={sorted(actual_ghosts)!r}"
            )
