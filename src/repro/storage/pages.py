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

A page is built whole from the payloads of one leaf write-back and never
edited: the next write-back of the leaf builds the next image. Only
``repro/storage/`` builds one (the ``page-discipline`` lint rule).

>>> page = SlottedPage(7, [b'{"k": 1}', b'{"k": 2}'], page_size=256, page_lsn=42)
>>> page.read_record(0)
b'{"k": 1}'
>>> clone = SlottedPage.from_bytes(page.to_bytes())
>>> (clone.page_id, clone.page_lsn, clone.read_record(1))
(7, 42, b'{"k": 2}')
>>> [slot for slot, _ in clone.records()]
[0, 1]
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
    """One fixed-size page: header + slot directory + packed payloads,
    laid out in slots ``0, 1, …`` against the page end."""

    __slots__ = ("page_id", "page_size", "page_lsn", "_slots", "_buf")

    def __init__(self, page_id, payloads=(), page_size=4096, page_lsn=0):
        if not MIN_PAGE_SIZE <= page_size <= MAX_PAGE_SIZE:
            raise StorageError(
                f"page_size {page_size} not in "
                f"[{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
            )
        self.page_id = page_id
        self.page_size = page_size
        self.page_lsn = page_lsn
        self._buf = buf = bytearray(page_size)
        self._slots = slots = []  # (offset, length); offset 0 = dead slot
        cursor = page_size
        for payload in payloads:
            cursor -= len(payload)
            buf[cursor:cursor + len(payload)] = payload
            slots.append((cursor, len(payload)))
        if cursor < PAGE_HEADER.size + len(slots) * PAGE_SLOT.size:
            raise StorageError(
                f"page {page_id}: full ({page_size - cursor} payload bytes "
                f"in {len(slots)} slots do not fit)"
            )

    def __repr__(self):
        return (
            f"SlottedPage(id={self.page_id}, lsn={self.page_lsn}, "
            f"slots={len(self._slots)}, size={self.page_size})"
        )

    @classmethod
    def capacity(cls, page_size):
        """Largest single payload an empty page of ``page_size`` holds."""
        return page_size - PAGE_HEADER.size - PAGE_SLOT.size

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_record(self, slot):
        if not 0 <= slot < len(self._slots) or self._slots[slot][0] == 0:
            raise StorageError(f"page {self.page_id}: no record in slot {slot}")
        offset, length = self._slots[slot]
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
        free_end = min(
            (offset for offset, _ in self._slots if offset), default=self.page_size
        )
        PAGE_HEADER.pack_into(
            image, 0, self.page_id, self.page_lsn, count, free_end, 0,
        )
        cursor = PAGE_HEADER.size + count * PAGE_SLOT.size
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
        page = cls(page_id, page_size=len(data), page_lsn=page_lsn)
        page._buf = image
        page._slots = list(PAGE_SLOT.iter_unpack(data[PAGE_HEADER.size:dir_end]))
        return page
