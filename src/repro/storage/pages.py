"""Slotted pages: the on-disk unit of the storage engine.

A :class:`SlottedPage` is a fixed-size byte image with the classic
layout (see ``docs/STORAGE.md`` for the pinned contract):

* a struct-packed **header** — ``page_id``, ``page_lsn``, ``slot_count``,
  ``free_end``, ``crc`` — at offset 0;
* a **slot directory** growing upward right after the header, one
  ``(offset, length)`` pair per slot (``offset == 0`` marks a dead slot);
* **record payloads** growing downward from the end of the page.

``page_lsn`` is the LSN of the last log record whose effect the page
image reflects — the write-ahead rule compares it against the durable
log boundary before the image may reach the page store, and recovery
uses it to decide whether a log record still needs redo against this
page. ``crc`` is a CRC-32 over the whole image (with the crc field
zeroed), stamped by :meth:`SlottedPage.to_bytes` and verified by
:meth:`SlottedPage.from_bytes` — a torn or bit-flipped page write is
detected at read time, never silently replayed.

Pages are *only* mutated through the buffer pool (the
``page-discipline`` lint rule rejects direct calls to the mutators from
anywhere else in the engine), so every change is tracked in the
dirty-page table with its recLSN.

>>> page = SlottedPage(page_id=7, page_size=256)
>>> s0 = page.insert_record(b'{"k": 1}')
>>> s1 = page.insert_record(b'{"k": 2}')
>>> page.read_record(s0)
b'{"k": 1}'
>>> page.set_page_lsn(42)
>>> clone = SlottedPage.from_bytes(page.to_bytes())
>>> (clone.page_id, clone.page_lsn, clone.read_record(s1))
(7, 42, b'{"k": 2}')
>>> page.delete_record(s0)
>>> [slot for slot, _ in page.records()]
[1]
>>> bad = bytearray(page.to_bytes()); bad[40] ^= 0xFF
>>> SlottedPage.from_bytes(bytes(bad))
Traceback (most recent call last):
    ...
repro.common.errors.StorageError: page 7: image checksum mismatch
"""

import itertools
import struct
import zlib

from repro.common import StorageError

#: page header: page_id, page_lsn, slot_count, free_end, crc
PAGE_HEADER = struct.Struct("<IQHHI")
#: one slot-directory entry: payload offset (0 = dead slot), payload length
PAGE_SLOT = struct.Struct("<HH")

#: the smallest page that can hold a header, one slot, and a tiny payload
MIN_PAGE_SIZE = 64
#: ``free_end`` and slot offsets are uint16 — pages cannot exceed this
MAX_PAGE_SIZE = 65535


class SlottedPage:
    """One fixed-size page: header + slot directory + packed payloads.

    The mutators maintain (and :meth:`from_bytes` derives once) what a
    placement asks: ``_free_end``, the lowest payload offset in use;
    ``_live_bytes`` of live payloads; ``_dead`` slots in the directory;
    ``_free_hint``, below which no slot is dead. The directory is walked
    only to find the next-lowest payload when the lowest is released.
    """

    __slots__ = (
        "page_id", "page_size", "page_lsn", "_slots", "_buf",
        "_free_end", "_live_bytes", "_dead", "_free_hint",
    )

    def __init__(self, page_id, page_size=4096):
        if not MIN_PAGE_SIZE <= page_size <= MAX_PAGE_SIZE:
            raise StorageError(
                f"page_size {page_size} not in "
                f"[{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
            )
        self.page_id = page_id
        self.page_size = page_size
        self.page_lsn = 0
        self._slots = []  # (offset, length); offset 0 = dead slot
        self._buf = bytearray(page_size)
        self._free_end = page_size
        self._live_bytes = 0
        self._dead = 0
        self._free_hint = 0

    def __repr__(self):
        return (
            f"SlottedPage(id={self.page_id}, lsn={self.page_lsn}, "
            f"slots={self.live_count()}/{len(self._slots)}, "
            f"free={self.free_space()})"
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    def _slot_dir_end(self):
        return PAGE_HEADER.size + len(self._slots) * PAGE_SLOT.size

    def _garbage(self):
        """Payload bytes reclaimable by compaction: everything in
        ``[free_end, page_size)`` that is not a live payload — never a
        running counter of its own: an allocation may land inside the
        hole a dead slot left (``free_end`` jumps past it), which such
        a counter cannot see."""
        return self.page_size - self._free_end - self._live_bytes

    def free_space(self):
        """Contiguous bytes between the slot directory and the payloads
        (what one insert can use without compaction)."""
        return self._free_end - self._slot_dir_end()

    def live_count(self):
        return len(self._slots) - self._dead

    def slot_count(self):
        return len(self._slots)

    def has_room_for(self, payload):
        """True when ``payload`` fits, counting compactable garbage and
        a possibly-new directory entry."""
        need = len(payload) if self._dead else len(payload) + PAGE_SLOT.size
        return need <= self.page_size - self._slot_dir_end() - self._live_bytes

    @classmethod
    def capacity(cls, page_size):
        """Largest single payload an empty page of ``page_size`` holds."""
        return page_size - PAGE_HEADER.size - PAGE_SLOT.size

    # ------------------------------------------------------------------
    # mutators (buffer-pool only; see the page-discipline lint rule)
    # ------------------------------------------------------------------

    def insert_record(self, payload):
        """Place ``payload`` in the lowest free slot; returns the slot
        number."""
        slots = self._slots
        if self._dead:
            slot = self._free_hint
            while slots[slot][0] != 0:
                slot += 1
        else:
            slot = len(slots)
            slots.append((0, 0))
            self._dead = 1
        offset = self._allocate(len(payload))
        if offset is None:
            if slot == len(slots) - 1:
                slots.pop()
                self._dead -= 1
            raise StorageError(
                f"page {self.page_id}: full ({len(payload)} bytes do not fit)"
            )
        self._dead -= 1
        self._free_hint = slot + 1
        self._place(slot, offset, payload)
        return slot

    def update_record(self, slot, payload):
        """Replace the payload of ``slot`` in place (re-placing it when
        it grew past its old space)."""
        offset, length = self._slot(slot)
        if len(payload) <= length:
            self._buf[offset:offset + len(payload)] = payload
            self._slots[slot] = (offset, len(payload))
            self._live_bytes += len(payload) - length
            return
        free_end = self._free_end
        self._release(slot)
        new_offset = self._allocate(len(payload))
        if new_offset is None:
            # nothing moved (no room means no compaction ran): restore
            self._slots[slot] = (offset, length)
            self._live_bytes += length
            self._dead -= 1
            self._free_end = free_end
            raise StorageError(
                f"page {self.page_id}: full ({len(payload)} bytes do not fit)"
            )
        self._dead -= 1
        self._place(slot, new_offset, payload)

    def delete_record(self, slot):
        """Mark ``slot`` dead; its payload space becomes garbage."""
        self._slot(slot)  # raises for a dead or out-of-range slot
        self._release(slot)

    def set_page_lsn(self, lsn):
        self.page_lsn = lsn

    def _place(self, slot, offset, payload):
        self._buf[offset:offset + len(payload)] = payload
        self._slots[slot] = (offset, len(payload))
        self._free_end = offset
        self._live_bytes += len(payload)

    def _release(self, slot):
        offset, length = self._slots[slot]
        self._slots[slot] = (0, 0)
        self._live_bytes -= length
        self._dead += 1
        if slot < self._free_hint:
            self._free_hint = slot
        if offset == self._free_end:
            # the lowest payload went: free_end jumps to the next one
            self._free_end = min(
                (off for off, _ in self._slots if off != 0),
                default=self.page_size,
            )

    def _allocate(self, length):
        """An offset for ``length`` payload bytes, compacting if needed;
        ``None`` when the page genuinely has no room."""
        dir_end = self._slot_dir_end()
        if length > self._free_end - dir_end:
            if length > self.page_size - dir_end - self._live_bytes:
                return None
            self._compact()
        return self._free_end - length

    def _compact(self):
        """Re-pack live payloads against the page end, squeezing out
        garbage left by deletes and updates."""
        live = [
            (i, bytes(self._buf[off:off + length]))
            for i, (off, length) in enumerate(self._slots)
            if off != 0
        ]
        self._buf = bytearray(self.page_size)
        cursor = self.page_size
        for i, payload in live:
            cursor -= len(payload)
            self._buf[cursor:cursor + len(payload)] = payload
            self._slots[i] = (cursor, len(payload))
        self._free_end = cursor

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _slot(self, slot):
        if not 0 <= slot < len(self._slots) or self._slots[slot][0] == 0:
            raise StorageError(f"page {self.page_id}: no record in slot {slot}")
        return self._slots[slot]

    def read_record(self, slot):
        offset, length = self._slot(slot)
        return bytes(self._buf[offset:offset + length])

    def records(self):
        """Yield ``(slot, payload)`` for every live slot, in slot order."""
        for i, (offset, length) in enumerate(self._slots):
            if offset != 0:
                yield i, bytes(self._buf[offset:offset + length])

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_bytes(self):
        """The full page image, CRC stamped over the image with the crc
        field zeroed."""
        image = bytearray(self._buf)
        count = len(self._slots)
        free_end = self._free_end
        PAGE_HEADER.pack_into(
            image, 0, self.page_id, self.page_lsn, count, free_end, 0,
        )
        cursor = self._slot_dir_end()
        struct.pack_into(  # the whole directory: count x PAGE_SLOT
            f"<{2 * count}H", image, PAGE_HEADER.size,
            *itertools.chain.from_iterable(self._slots),
        )
        # zero the dead zone between directory and payloads so the image
        # (and its CRC) never depends on stale garbage bytes
        image[cursor:free_end] = bytes(free_end - cursor)
        PAGE_HEADER.pack_into(
            image, 0, self.page_id, self.page_lsn, count, free_end,
            zlib.crc32(image),
        )
        return bytes(image)

    @classmethod
    def from_bytes(cls, data):
        """Rebuild a page from its image, verifying the CRC stamp."""
        if len(data) < PAGE_HEADER.size:
            raise StorageError("page image shorter than its header")
        page_id, page_lsn, slot_count, free_end, crc = PAGE_HEADER.unpack_from(
            data, 0
        )
        image = bytearray(data)
        PAGE_HEADER.pack_into(
            image, 0, page_id, page_lsn, slot_count, free_end, 0
        )
        if zlib.crc32(image) != crc:
            raise StorageError(f"page {page_id}: image checksum mismatch")
        dir_end = PAGE_HEADER.size + slot_count * PAGE_SLOT.size
        if dir_end > len(data):
            raise StorageError(f"page {page_id}: slot directory overruns")
        page = cls(page_id, page_size=len(data))
        page.page_lsn = page_lsn
        page._buf = image
        page._slots = list(PAGE_SLOT.iter_unpack(data[PAGE_HEADER.size:dir_end]))
        live = [entry for entry in page._slots if entry[0] != 0]
        page._dead = slot_count - len(live)
        page._live_bytes = sum(length for _, length in live)
        page._free_end = min((off for off, _ in live), default=len(data))
        return page
