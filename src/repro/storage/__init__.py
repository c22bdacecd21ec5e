"""Storage substrate: B+-trees, slotted pages, versioned records, ghosts.

This package is deliberately ignorant of transactions and locking — it
provides the physical structures (and the ghost/version mechanics) that the
transactional layers coordinate over.
"""

from repro.storage.btree import BPlusTree
from repro.storage.bufferpool import BufferPool, PageManager, PageStore
from repro.storage.index import Index
from repro.storage.pages import SlottedPage
from repro.storage.records import Version, VersionedRecord

__all__ = [
    "BPlusTree",
    "BufferPool",
    "Index",
    "PageManager",
    "PageStore",
    "SlottedPage",
    "Version",
    "VersionedRecord",
]
