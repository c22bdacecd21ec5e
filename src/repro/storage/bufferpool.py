"""The buffer pool: the dirty-leaf table over a durable page store, and
the write-ahead rule at the page boundary.

Every B-tree leaf is a page (``docs/STORAGE.md`` §2): it keeps its
decoded records, each stamped with the LSN of the log record that last
changed it, and is packed into a slotted-page image only when it is
written back. Two layers live here, and recovery's read of the device:

* :class:`PageStore` — the simulated durable device. It holds the last
  written image of every page and survives a crash; the
  ``page.torn_write`` fault site corrupts an image *in flight* so the
  CRC check in :meth:`~repro.storage.pages.SlottedPage.from_bytes`
  trips at the next read.
* :class:`BufferPool` — the dirty-leaf table: which leaves' images are
  stale, since which LSN (``rec_lsn``), least recently dirtied first. A
  leaf is written back when the table exceeds its cap, at a checkpoint,
  and at recovery's last step. A write-back packs each entry with
  :func:`repro.wal.codec.pack_entry`, forces the WAL durable to the
  leaf's ``page_lsn`` first (WAL-before-write) and, when the cap forced
  it, emits ``page_evicted`` — which the WAL-rule sanitizer checks
  against the durable log boundary.
* :func:`durable_winners` — recovery's one read of the store: the newest
  entry per key over every image, and the redo gate.

Structure changes log nothing, so write-backs are ordered instead (rule
(b)): a leaf that gave entries away is written only after the leaves
that received them, and a leaf freed by a merge keeps its image until
its receiver's is written — until then, the old image may hold the only
durable copy of an entry whose records lie below the recycle floor.

>>> from repro.catalog import RowLayout
>>> from repro.storage.btree import BPlusTree
>>> from repro.storage.records import VersionedRecord
>>> from repro.wal import LogManager
>>> pool = BufferPool(capacity=2, log=LogManager())
>>> pool.attach(PageStore(), leaves=())
>>> trees = [
...     BPlusTree(order=4, pages=pool, layout=RowLayout(i, f"t{i}", ("k",)))
...     for i in range(3)
... ]
>>> for lsn, tree in enumerate(trees, start=1):
...     _ = tree.setdefault((1,), VersionedRecord((1,), {"k": 1}, lsn=lsn), lsn)
...     pool.write_excess()
>>> pool.stats()["evictions"], len(pool.store), pool.dirty_page_table()
(1, 1, {2: 2, 3: 3})
>>> pool.write_older_than(3), pool.dirty_page_table()
(1, {3: 3})
"""

import itertools
from collections import OrderedDict

from repro.common import StorageError
from repro.faults import NULL_INJECTOR
from repro.locking import escrow
from repro.obs.tracer import NULL_TRACER
from repro.storage.btree import _LeafNode
from repro.storage.pages import MAX_PAGE_SIZE, PAGE_HEADER, PAGE_SLOT, SlottedPage
from repro.wal.codec import entry_lsn, pack_entry, unpack_entry


class PageStore:
    """The durable side of the page world: last-written image per page.

    A crash loses the dirty-leaf table but none of these images —
    recovery seeds state and its redo gate from them. ``write_listener``
    (when set) observes every completed write, corrupted or not, and
    every drop (as ``(page_id, None)``), so crash harnesses can
    reconstruct the exact device state at any boundary.
    """

    def __init__(self, faults=None):
        self._images = {}  # page_id -> bytes
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.writes = 0
        self.reads = 0
        self.torn_writes = 0
        self.write_listener = None

    def __len__(self):
        return len(self._images)

    def write_page(self, page):
        """Write ``page``'s image; the ``page.torn_write`` fault site
        corrupts the image in flight (detected at the next read)."""
        data = page.to_bytes()
        if self.faults.active and self.faults.fires(
            "page.torn_write", detail=str(page.page_id)
        ) is not None:
            torn = bytearray(data)
            torn[len(torn) // 2] ^= 0xFF
            data = bytes(torn)
            self.torn_writes += 1
        self.writes += 1
        self._images[page.page_id] = data
        if self.write_listener is not None:
            self.write_listener(page.page_id, data)

    def drop_page(self, page_id):
        """Remove ``page_id``'s image, if it has one."""
        if self._images.pop(page_id, None) is not None:
            if self.write_listener is not None:
                self.write_listener(page_id, None)

    def read_page(self, page_id):
        """Rebuild the page at ``page_id`` (CRC verified; a torn write
        surfaces here as a StorageError)."""
        data = self._images.get(page_id)
        if data is None:
            raise StorageError(f"no durable image for page {page_id}")
        self.reads += 1
        return SlottedPage.from_bytes(data)

    def page_ids(self):
        return list(self._images)

    def has_page(self, page_id):
        return page_id in self._images

    def snapshot(self):
        """Copy of the current device state (crash-harness helper)."""
        return dict(self._images)

    def restore(self, images):
        """Replace the device state wholesale (crash-harness helper)."""
        self._images = dict(images)


class BufferPool:
    """The dirty-leaf table of one engine, capped at ``capacity`` leaves.

    ``log`` (a :class:`~repro.wal.log.LogManager`) is the WAL-before-write
    dependency: a leaf's image may only reach the store once the log is
    durable up to the leaf's ``page_lsn``. Until :meth:`attach` gives
    it a store the pool is *recovering*: it tracks and writes nothing.
    """

    def __init__(self, capacity=64, log=None, tracer=NULL_TRACER,
                 page_size=4096, page_ids=None):
        self.store = None
        self.capacity = capacity
        self.log = log
        self.tracer = tracer
        self.page_size = page_size
        self._page_ids = page_ids if page_ids is not None else itertools.count(1)
        self._dirty = OrderedDict()  # leaf -> None, least recently dirtied first
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.forced_wal_flushes = 0

    def new_page_id(self):
        return next(self._page_ids)

    def attach(self, store, leaves):
        """Start writing to ``store``, a fresh one, packing each
        non-empty leaf of ``leaves`` into it once — how an engine starts
        (no leaves) and recovery's last step (every leaf of the recovered
        indexes: rule (d))."""
        self.store = store
        for leaf in leaves:
            if leaf.values:
                self._write_image(leaf, evicting=False)

    # ------------------------------------------------------------------
    # what the tree tells the pool
    # ------------------------------------------------------------------

    def dirty(self, leaf, lsn):
        """``leaf`` changed at ``lsn``: a clean leaf joins the table (a
        miss), a dirty one moves to its most recently dirtied end (a
        hit). Writes nothing: the caller finishes its change, then calls
        :meth:`write_excess`."""
        if self.store is None:
            return
        if lsn > leaf.page_lsn:
            leaf.page_lsn = lsn
        if leaf.rec_lsn is None:
            leaf.rec_lsn = lsn
            self._dirty[leaf] = None
            self.misses += 1
        else:
            if lsn < leaf.rec_lsn:
                leaf.rec_lsn = lsn
            self._dirty.move_to_end(leaf)
            self.hits += 1

    def moved(self, giver, receiver):
        """Entries moved from ``giver`` to ``receiver`` (a split or a
        borrow). The giver turns dirty; the receiver takes the older of
        the two ``rec_lsn`` — the log tail + 1 for a clean giver — and
        must be written before the giver, when it has an image, and
        before every leaf waiting on the giver: their images may hold
        the moved entries' only durable copies."""
        if self.store is None:
            return
        rec_lsn = giver.rec_lsn
        if rec_lsn is None:
            rec_lsn = self.log.tail_lsn() + 1
            self._join(giver, rec_lsn)
        if receiver.rec_lsn is None:
            self._join(receiver, rec_lsn)
        elif rec_lsn < receiver.rec_lsn:
            receiver.rec_lsn = rec_lsn
        if self.store.has_page(giver.page_id):
            _link(giver, receiver)
        for waiter in list(giver.waiters or ()):
            _link(waiter, receiver)

    def freed(self, leaf, receiver):
        """``leaf`` merged into ``receiver`` and left the tree. Whoever
        waited on it waits on the receiver; its image, if it has one,
        is dropped once the receiver's is written."""
        if self.store is None:
            return
        self.moved(leaf, receiver)  # its waiters now wait on the receiver
        for giver in leaf.waiters or ():
            del giver.waits[leaf]
        leaf.waiters = None
        leaf.freed = True
        if not self.store.has_page(leaf.page_id):
            self._done(leaf)

    def _join(self, leaf, rec_lsn):
        leaf.rec_lsn = rec_lsn
        self._dirty[leaf] = None

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------

    def write_excess(self):
        """Write back least recently dirtied leaves until the table fits
        its cap."""
        dirty = self._dirty
        while len(dirty) > self.capacity:
            self._write(next(iter(dirty)), set(), evicting=True)

    def write_older_than(self, lsn):
        """A checkpoint's write-back (rule (c)): every leaf dirty since
        before ``lsn``, the previous checkpoint's LSN (every one, for
        ``None``). Returns how many leaves left the table."""
        busy = set()
        stale = [
            leaf for leaf in self._dirty if lsn is None or leaf.rec_lsn < lsn
        ]
        for leaf in stale:
            if leaf not in busy:
                self._write(leaf, busy, evicting=False)
        return len(busy)

    def _write(self, leaf, busy, evicting):
        """Write ``leaf`` back — drop its image, if freed — after every
        receiver it waits on. A receiver already on the path is a cycle
        (two leaves that gave each other entries, neither written since),
        broken by writing this leaf under a new page id."""
        busy.add(leaf)
        for receiver in list(leaf.waits or ()):
            if receiver not in busy:
                self._write(receiver, busy, evicting)
        if leaf.waits:
            self._relocate(leaf)
        if leaf.freed:
            self.store.drop_page(leaf.page_id)
        else:
            self._write_image(leaf, evicting)
        if evicting:
            self.evictions += 1
        self._done(leaf)

    def _relocate(self, leaf):
        """Give ``leaf`` a new page id; its old image stays behind as a
        freed page that waits on its receivers."""
        stub = _LeafNode(0, leaf.layout, leaf.page_id)
        stub.freed = True
        stub.page_lsn = leaf.page_lsn
        stub.waits = leaf.waits
        for receiver in stub.waits:
            del receiver.waiters[leaf]
            receiver.waiters[stub] = None
        self._join(stub, leaf.rec_lsn)
        leaf.waits = None
        leaf.page_id = self.new_page_id()

    def _write_image(self, leaf, evicting):
        page = self.image(leaf)
        if page.page_lsn > self.log.flushed_lsn:
            self.log.flush_for_writeback(page.page_lsn)
            self.forced_wal_flushes += 1
        self.store.write_page(page)
        if evicting:
            self.dirty_evictions += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "page_evicted", page_id=page.page_id, dirty=True,
                    page_lsn=page.page_lsn,
                )

    def _done(self, leaf):
        """``leaf``'s image is current (or gone): it leaves the table and
        stops holding back the leaves that gave it entries."""
        self._dirty.pop(leaf, None)
        leaf.rec_lsn = None
        for giver in leaf.waiters or ():
            del giver.waits[leaf]
        leaf.waiters = None

    def payloads(self, leaf, reuse=False):
        """``(entries, page_lsn)``: ``leaf``'s records packed as its image
        holds them (rule (a)), and the LSN the image is stamped with.

        With ``reuse`` (a write-back), a leaf written before keeps each
        record's entry bytes, and a record whose LSN has not moved since
        is not packed again. By rule (a) an entry is fixed by its LSN:
        whatever changes what an image holds for a record logs a record
        and stamps its LSN, and a commit that folds pending deltas into
        the row leaves their sum, the written value, as it was."""
        layout = leaf.layout
        keep = reuse and self.store.has_page(leaf.page_id)
        lsn = leaf.page_lsn
        entries = []
        for record in leaf.values:
            entry = record.packed if keep else None
            if entry is None or entry_lsn(entry) != record.lsn:
                entry = pack_entry(
                    layout, record.key, escrow.inclusive_row(record),
                    record.is_ghost, record.lsn,
                )
                if keep:
                    record.packed = entry
            entries.append(entry)
            if record.lsn > lsn:
                lsn = record.lsn
        return entries, lsn

    def image(self, leaf):
        """``leaf`` packed into one slotted page: ``page_size`` bytes, or
        right-sized when its entries need more."""
        entries, lsn = self.payloads(leaf, reuse=True)
        size = max(
            self.page_size,
            PAGE_HEADER.size + sum(len(e) + PAGE_SLOT.size for e in entries),
        )
        if size > MAX_PAGE_SIZE:
            raise StorageError(
                f"leaf of {leaf.layout.name!r} needs a {size}-byte image, over the "
                f"maximum page size ({MAX_PAGE_SIZE})"
            )
        return SlottedPage(leaf.page_id, entries, size, lsn)

    # ------------------------------------------------------------------
    # the table
    # ------------------------------------------------------------------

    def dirty_page_table(self):
        """``{page_id: rec_lsn}`` for every dirty or freed leaf — what a
        checkpoint logs and where ARIES redo starts."""
        return {leaf.page_id: leaf.rec_lsn for leaf in self._dirty}

    def discard(self, layout, leaves):
        """The index of ``layout`` was dropped: its leaves (``leaves``,
        the live ones) leave the table and their images the store."""
        if self.store is None:
            return
        dropped = [leaf for leaf in self._dirty if leaf.layout is layout]
        for leaf in dropped:
            del self._dirty[leaf]
        for leaf in itertools.chain(dropped, leaves):
            self.store.drop_page(leaf.page_id)

    def stats(self):
        return {
            "frames": self.capacity,
            "dirty": len(self._dirty),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "forced_wal_flushes": self.forced_wal_flushes,
        }


def _link(giver, receiver):
    """``giver``'s image holds entries now in ``receiver``: the giver is
    written only after the receiver."""
    if giver is receiver:
        return
    if giver.waits is None:
        giver.waits = {}
    giver.waits[receiver] = None
    if receiver.waiters is None:
        receiver.waiters = {}
    receiver.waiters[giver] = None


def durable_winners(store, layouts):
    """Recovery's one read of the durable device.

    Reads every page image in ``store`` once (CRC-checked
    :meth:`PageStore.read_page`), decoding against ``layouts``, and
    elects the newest entry per key.
    Returns ``(table, pages_loaded, torn)`` where ``table`` maps
    ``(index, key)`` to ``(lsn, row, is_ghost)`` — or is ``None`` when a
    torn page makes the store untrustworthy and the caller must replay
    the whole log instead.
    """
    table = {}
    pages_loaded = 0
    torn = 0
    for page_id in sorted(store.page_ids()):
        try:
            page = store.read_page(page_id)
        except StorageError:
            torn += 1
            continue
        pages_loaded += 1
        for _, payload in page.records():
            layout, key, row, ghost, lsn = unpack_entry(payload, layouts)
            locator = (layout.name, key)
            current = table.get(locator)
            # pages are visited in id order, so a tie goes to the later page
            if current is None or lsn >= current[0]:
                table[locator] = (lsn, row, ghost)
    return (None if torn else table), pages_loaded, torn
