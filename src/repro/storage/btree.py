"""A B+-tree addressed by node IDs.

This is the physical structure underneath every table and indexed view in
the engine. It is a textbook B+-tree — separator keys in inner nodes,
records only in leaves, leaves doubly linked for range scans — implemented
with full rebalancing on delete (borrow from siblings, merge, shrink root).

Nodes do not hold Python object pointers to each other. Every node lives
in a node store under an integer node ID, and all structural references —
an inner node's ``children``, a leaf's ``next``/``prev`` chain, the root —
are node IDs resolved through the store (ID 0 means "no node"). This is
the same indirection a paged engine uses for page IDs: the tree's shape is
a graph of small integers, so a node can in principle be relocated,
evicted, or serialized without rewriting its neighbours. ``node_count()``
and the store-consistency check in :meth:`BPlusTree.check_invariants`
(reachable IDs must equal stored IDs exactly) exist to keep that property
honest: merges and root shrinks must free IDs, never leak them.

Beyond the usual mapping operations, the tree exposes the navigation
primitives that key-range locking needs:

* :meth:`BPlusTree.next_key` / :meth:`BPlusTree.prev_key` — find the
  neighbouring existing key, used to pick the lock that protects a gap.
* :meth:`BPlusTree.seek` / :meth:`BPlusTree.slot` — one descent to the
  leaf a key belongs in, then the value there and the gap fence (the next
  key up) read from that leaf or its right sibling. A caller may keep the
  leaf and hand it back to :meth:`BPlusTree.setdefault` /
  :meth:`BPlusTree.touch` instead of descending again, for as long as
  :attr:`BPlusTree.shape` — bumped by every split, borrow, merge and
  raised separator — has not moved: only those change which leaf a key
  belongs in.
* :meth:`BPlusTree.range_items` — scan a :class:`~repro.common.keys.KeyRange`
  in key order.

Keys are tuples (see :func:`repro.common.keys.composite_key`); values are
arbitrary objects (the storage layer stores :class:`~repro.storage.records.
VersionedRecord` instances, but the tree does not care).

A tree built with ``pages`` (a :class:`~repro.storage.bufferpool.BufferPool`)
is *paged*: every leaf is a page (``docs/STORAGE.md`` §2). It carries a
page id unique per engine, its ``page_lsn`` and — while its image is stale
— a ``rec_lsn``. The tree tells the pool three things and packs nothing:
a leaf changed at an LSN (:meth:`BPlusTree.setdefault`, :meth:`BPlusTree.pop`
and :meth:`BPlusTree.touch` with an ``lsn``), entries moved from one leaf
to another (a split or a borrow), and a leaf was freed into a sibling (a
merge).
"""

import bisect

from repro.common import StorageError
from repro.common.keys import NEG_INF, POS_INF, KeyRange

DEFAULT_ORDER = 32

#: The null node ID: no sibling, end of the leaf chain.
NO_NODE = 0

_MISSING = object()


class _LeafNode:
    __slots__ = (
        "id", "keys", "values", "next", "prev",
        "index", "page_id", "page_lsn", "rec_lsn", "freed", "waits", "waiters",
    )

    def __init__(self, node_id, index=None, page_id=None):
        self.id = node_id
        self.keys = []
        self.values = []
        self.next = NO_NODE  # node ID of the right sibling leaf
        self.prev = NO_NODE  # node ID of the left sibling leaf
        # the page (docs/STORAGE.md §2), maintained by the buffer pool
        self.index = index  # the name its entries are packed under
        self.page_id = node_id if page_id is None else page_id
        self.page_lsn = 0  # newest change made to it, removals included
        self.rec_lsn = None  # oldest change its image lacks; None: clean
        self.freed = False  # merged away; its image awaits dropping
        self.waits = None  # receivers to write before it (rule (b))
        self.waiters = None  # givers waiting on its write

    @property
    def is_leaf(self):
        return True


class _InnerNode:
    __slots__ = ("id", "keys", "children")

    def __init__(self, node_id):
        self.id = node_id
        # children[i] holds keys < keys[i]; children[-1] holds the rest.
        # Entries are node IDs, not node objects.
        self.keys = []
        self.children = []

    @property
    def is_leaf(self):
        return False


class BPlusTree:
    """An ordered mapping from tuple keys to values.

    ``order`` is the maximum number of children of an inner node; leaves
    hold at most ``order - 1`` entries. The minimum order is 4 so that
    every split and merge has room to work.

    >>> t = BPlusTree(order=4)
    >>> t.insert((1,), "a"); t.insert((2,), "b")
    >>> t.get((2,))
    'b'
    >>> [k for k, _ in t.items()]
    [(1,), (2,)]
    """

    def __init__(self, order=DEFAULT_ORDER, pages=None, name=None):
        if order < 4:
            raise StorageError("order must be at least 4")
        self._order = order
        self._pages = pages
        self._name = name
        self._nodes = {}  # node ID -> node
        self._next_node_id = 1
        self._root = self._new_leaf().id
        self._size = 0
        #: structure changes so far (splits, borrows, merges, raised
        #: separators, clears): a leaf found at one shape is still its
        #: keys' leaf at the same one
        self.shape = 0

    # ------------------------------------------------------------------
    # node store
    # ------------------------------------------------------------------

    def _new_leaf(self):
        pages = self._pages
        node = _LeafNode(
            self._next_node_id, self._name,
            pages.new_page_id() if pages is not None else None,
        )
        self._nodes[node.id] = node
        self._next_node_id += 1
        return node

    def _new_inner(self):
        node = _InnerNode(self._next_node_id)
        self._nodes[node.id] = node
        self._next_node_id += 1
        return node

    def _node(self, node_id):
        """Resolve a node ID through the store."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise StorageError(f"dangling node ID {node_id}") from None

    def _free(self, node_id):
        """Return a node's ID to the store after a merge or root shrink."""
        del self._nodes[node_id]

    def node_count(self):
        """Number of live nodes in the store (root included)."""
        return len(self._nodes)

    # ------------------------------------------------------------------
    # basic mapping operations
    # ------------------------------------------------------------------

    def __len__(self):
        return self._size

    def __contains__(self, key):
        return self.get(key, default=_MISSING) is not _MISSING

    def get(self, key, default=None):
        """Return the value stored at ``key``, or ``default``."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    def insert(self, key, value):
        """Insert ``key`` -> ``value``; a duplicate key raises
        :class:`StorageError`."""
        size = self._size
        self.setdefault(key, value)
        if self._size == size:  # nothing was added: the key was there
            raise StorageError(f"duplicate key {key!r}")

    def setdefault(self, key, value, lsn=None, leaf=None):
        """The value at ``key``, which becomes ``value`` if the key is
        absent — found or placed in one descent, or in none when ``leaf``
        is the leaf :meth:`seek` found at the current :attr:`shape`. With
        ``lsn``, the leaf is marked changed by the log record at ``lsn``."""
        path = None
        if leaf is None:
            path = self._find_path(key)
            leaf = path[-1][0]
        idx = bisect.bisect_left(leaf.keys, key)
        found = idx < len(leaf.keys) and leaf.keys[idx] == key
        if lsn is not None and self._pages is not None:
            self._pages.dirty(leaf, lsn)
        if found:
            return leaf.values[idx]
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        self._size += 1
        if len(leaf.keys) >= self._order:
            self._split(path or self._find_path(key))
        return value

    def touch(self, key, lsn, leaf=None):
        """Mark the leaf holding ``key`` (``leaf``, when the caller has
        it) changed by the log record at ``lsn``: its value was changed
        in place."""
        if self._pages is not None:
            self._pages.dirty(leaf or self._find_leaf(key), lsn)

    def seek(self, key):
        """The leaf ``key`` belongs in: one descent."""
        return self._find_leaf(key)

    def slot(self, leaf, key):
        """``(value, fence)`` of ``key`` in its ``leaf``: the value stored
        there (``None`` if absent) and the smallest key at or above
        ``key`` (``None`` past the last), read from ``leaf`` or its right
        sibling."""
        keys = leaf.keys
        idx = bisect.bisect_left(keys, key)
        if idx < len(keys):
            fence = keys[idx]
            return (leaf.values[idx] if fence == key else None), fence
        while leaf.next != NO_NODE:
            leaf = self._node(leaf.next)
            if leaf.keys:
                return None, leaf.keys[0]
        return None, None

    def update(self, key, value):
        """Replace the value at an existing ``key``."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise StorageError(f"missing key {key!r}")
        leaf.values[idx] = value

    def delete(self, key, lsn=None):
        """Remove ``key`` and return its value; with ``lsn``, the leaf is
        marked changed by the log record at ``lsn`` (before any merge can
        free it).

        Raises :class:`StorageError` if the key is absent.
        """
        path = self._find_path(key)
        leaf = path[-1][0]
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise StorageError(f"missing key {key!r}")
        value = leaf.values[idx]
        del leaf.keys[idx]
        del leaf.values[idx]
        self._size -= 1
        if lsn is not None and self._pages is not None:
            self._pages.dirty(leaf, lsn)
        self._rebalance(path)
        return value

    def pop(self, key, default=_MISSING, lsn=None):
        """Remove ``key`` if present, returning its value or ``default``."""
        try:
            return self.delete(key, lsn)
        except StorageError:
            if default is _MISSING:
                raise
            return default

    def clear(self):
        """Remove every entry (and every node ID except a fresh root's)."""
        self._nodes = {}
        self._root = self._new_leaf().id
        self._size = 0
        self.shape += 1

    def leaves(self):
        """Iterate the leaf nodes in key order (the pages of a paged
        tree)."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            yield leaf
            leaf = self._node(leaf.next) if leaf.next != NO_NODE else None

    # ------------------------------------------------------------------
    # ordered navigation
    # ------------------------------------------------------------------

    def first_key(self):
        """The smallest key, or ``None`` if the tree is empty."""
        leaf = self._leftmost_leaf()
        return leaf.keys[0] if leaf.keys else None

    def last_key(self):
        """The largest key, or ``None`` if the tree is empty."""
        node = self._node(self._root)
        while not node.is_leaf:
            node = self._node(node.children[-1])
        return node.keys[-1] if node.keys else None

    def next_key(self, key, inclusive=False):
        """The smallest stored key strictly greater than ``key`` (or
        greater-or-equal when ``inclusive``). ``None`` if no such key.

        ``key`` may be the NEG_INF sentinel to mean "before everything".
        """
        if key is NEG_INF:
            return self.first_key()
        if key is POS_INF:
            return None
        leaf = self._find_leaf(key)
        if inclusive:
            idx = bisect.bisect_left(leaf.keys, key)
        else:
            idx = bisect.bisect_right(leaf.keys, key)
        while leaf is not None:
            if idx < len(leaf.keys):
                return leaf.keys[idx]
            leaf = self._node(leaf.next) if leaf.next != NO_NODE else None
            idx = 0
        return None

    def prev_key(self, key, inclusive=False):
        """The largest stored key strictly less than ``key`` (or
        less-or-equal when ``inclusive``). ``None`` if no such key."""
        if key is POS_INF:
            return self.last_key()
        if key is NEG_INF:
            return None
        leaf = self._find_leaf(key)
        if inclusive:
            idx = bisect.bisect_right(leaf.keys, key) - 1
        else:
            idx = bisect.bisect_left(leaf.keys, key) - 1
        while leaf is not None:
            if idx >= 0:
                return leaf.keys[idx]
            leaf = self._node(leaf.prev) if leaf.prev != NO_NODE else None
            if leaf is not None:
                idx = len(leaf.keys) - 1
        return None

    def items(self):
        """Iterate all ``(key, value)`` pairs in key order."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            # Snapshot the leaf so concurrent structural changes made by
            # the caller (e.g. deleting while scanning) do not skip entries.
            for pair in list(zip(leaf.keys, leaf.values)):
                yield pair
            leaf = self._node(leaf.next) if leaf.next != NO_NODE else None

    def keys(self):
        for key, _ in self.items():
            yield key

    def values(self):
        for _, value in self.items():
            yield value

    def range_items(self, key_range):
        """Iterate ``(key, value)`` pairs whose keys fall in ``key_range``.

        ``key_range`` is a :class:`repro.common.keys.KeyRange`; unbounded
        ends are supported.
        """
        if not isinstance(key_range, KeyRange):
            raise StorageError("range_items expects a KeyRange")
        if key_range.is_empty():
            return
        low = key_range.low
        if low.key is NEG_INF:
            leaf = self._leftmost_leaf()
            idx = 0
        else:
            leaf = self._find_leaf(low.key)
            if low.inclusive:
                idx = bisect.bisect_left(leaf.keys, low.key)
            else:
                idx = bisect.bisect_right(leaf.keys, low.key)
        high = key_range.high
        while leaf is not None:
            pairs = list(zip(leaf.keys, leaf.values))
            for key, value in pairs[idx:]:
                if high.key is not POS_INF:
                    if key > high.key:
                        return
                    if key == high.key and not high.inclusive:
                        return
                yield key, value
            leaf = self._node(leaf.next) if leaf.next != NO_NODE else None
            idx = 0

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def height(self):
        """Number of levels (1 for a lone leaf)."""
        h = 1
        node = self._node(self._root)
        while not node.is_leaf:
            h += 1
            node = self._node(node.children[0])
        return h

    def check_invariants(self):
        """Verify structural invariants; raises StorageError on violation.

        Used by tests after randomized operation sequences. Checks key
        ordering inside nodes, separator correctness, fill factors, leaf
        chaining, the size counter, and node-store consistency (the set
        of node IDs reachable from the root must be exactly the set of
        stored IDs — merges must free IDs, never leak them).
        """
        reachable = set()
        count = self._check_node(
            self._root, NEG_INF, POS_INF, reachable, is_root=True
        )
        if count != self._size:
            raise StorageError(f"size mismatch: counted {count}, recorded {self._size}")
        if reachable != set(self._nodes):
            leaked = sorted(set(self._nodes) - reachable)
            dangling = sorted(reachable - set(self._nodes))
            raise StorageError(
                f"node store inconsistent: leaked IDs {leaked}, "
                f"dangling IDs {dangling}"
            )
        # leaf chain must enumerate the same keys in sorted order
        chained = list(self.keys())
        if chained != sorted(chained):
            raise StorageError("leaf chain out of order")
        if len(chained) != self._size:
            raise StorageError("leaf chain misses entries")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _leftmost_leaf(self):
        node = self._node(self._root)
        while not node.is_leaf:
            node = self._node(node.children[0])
        return node

    def _find_leaf(self, key):
        node = self._node(self._root)
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = self._node(node.children[idx])
        return node

    def _find_path(self, key):
        """Return [(node, child_index_in_parent), ...] from root to leaf.

        The root's recorded index is ``None``. Path entries hold resolved
        node objects; the IDs they came from are ``node.id``.
        """
        path = []
        node = self._node(self._root)
        idx_in_parent = None
        while True:
            path.append((node, idx_in_parent))
            if node.is_leaf:
                return path
            idx = bisect.bisect_right(node.keys, key)
            idx_in_parent = idx
            node = self._node(node.children[idx])

    def _split(self, path):
        """Split the (overfull) leaf at the end of ``path`` and propagate."""
        self.shape += 1
        node, _ = path[-1]
        mid = len(node.keys) // 2
        right = self._new_leaf()
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        right.prev = node.id
        if right.next != NO_NODE:
            self._node(right.next).prev = right.id
        node.next = right.id
        if self._pages is not None:
            self._pages.moved(node, right)
        separator = right.keys[0]
        self._insert_in_parent(path, len(path) - 1, separator, right.id)

    def _insert_in_parent(self, path, level, separator, right_child_id):
        if level == 0:
            new_root = self._new_inner()
            new_root.keys = [separator]
            new_root.children = [path[0][0].id, right_child_id]
            self._root = new_root.id
            return
        parent, _ = path[level - 1]
        child_idx = path[level][1]
        parent.keys.insert(child_idx, separator)
        parent.children.insert(child_idx + 1, right_child_id)
        if len(parent.children) > self._order:
            self._split_inner(path, level - 1)

    def _split_inner(self, path, level):
        node, _ = path[level]
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = self._new_inner()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._insert_in_parent(path, level, separator, right.id)

    def _min_leaf_fill(self):
        return (self._order - 1) // 2

    def _min_inner_children(self):
        return (self._order + 1) // 2

    def _rebalance(self, path):
        """Restore fill invariants after a delete along ``path``."""
        level = len(path) - 1
        while level > 0:
            node, idx_in_parent = path[level]
            parent, _ = path[level - 1]
            if node.is_leaf:
                underfull = len(node.keys) < self._min_leaf_fill()
            else:
                underfull = len(node.children) < self._min_inner_children()
            if not underfull:
                self._fix_separator(parent, idx_in_parent, node)
                return
            if not self._borrow_or_merge(parent, idx_in_parent, node):
                return
            level -= 1
        # root handling: shrink if an inner root lost all separators
        root = self._node(self._root)
        if not root.is_leaf and len(root.children) == 1:
            self._root = root.children[0]
            self._free(root.id)

    def _fix_separator(self, parent, idx_in_parent, node):
        """Keep the parent separator equal to the subtree's smallest key
        after deletions at a leaf's left edge. Raising it hands the keys
        between the old and new separator to the left sibling, so the
        tree changes shape: a leaf found before is no longer theirs."""
        if idx_in_parent and node.is_leaf and node.keys:
            if parent.keys[idx_in_parent - 1] != node.keys[0]:
                parent.keys[idx_in_parent - 1] = node.keys[0]
                self.shape += 1

    def _borrow_or_merge(self, parent, idx, node):
        """Try borrowing from a sibling; otherwise merge.

        Returns True if the parent lost a child (so rebalancing must
        continue upward). The absorbed node's ID is freed back to the
        store.
        """
        self.shape += 1
        left = self._node(parent.children[idx - 1]) if idx > 0 else None
        right = (
            self._node(parent.children[idx + 1])
            if idx + 1 < len(parent.children)
            else None
        )

        if node.is_leaf:
            pages = self._pages
            min_fill = self._min_leaf_fill()
            if left is not None and len(left.keys) > min_fill:
                node.keys.insert(0, left.keys.pop())
                node.values.insert(0, left.values.pop())
                parent.keys[idx - 1] = node.keys[0]
                if pages is not None:
                    pages.moved(left, node)
                return False
            if right is not None and len(right.keys) > min_fill:
                node.keys.append(right.keys.pop(0))
                node.values.append(right.values.pop(0))
                parent.keys[idx] = right.keys[0]
                if pages is not None:
                    pages.moved(right, node)
                return False
            # merge with a sibling
            if left is not None:
                left.keys.extend(node.keys)
                left.values.extend(node.values)
                left.next = node.next
                if node.next != NO_NODE:
                    self._node(node.next).prev = left.id
                del parent.children[idx]
                del parent.keys[idx - 1]
                self._free(node.id)
                if pages is not None:
                    pages.freed(node, left)
            else:
                node.keys.extend(right.keys)
                node.values.extend(right.values)
                node.next = right.next
                if right.next != NO_NODE:
                    self._node(right.next).prev = node.id
                del parent.children[idx + 1]
                del parent.keys[idx]
                self._free(right.id)
                if pages is not None:
                    pages.freed(right, node)
            return True

        min_children = self._min_inner_children()
        if left is not None and len(left.children) > min_children:
            node.children.insert(0, left.children.pop())
            node.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            return False
        if right is not None and len(right.children) > min_children:
            node.children.append(right.children.pop(0))
            node.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            return False
        if left is not None:
            left.keys.append(parent.keys[idx - 1])
            left.keys.extend(node.keys)
            left.children.extend(node.children)
            del parent.children[idx]
            del parent.keys[idx - 1]
            self._free(node.id)
        else:
            node.keys.append(parent.keys[idx])
            node.keys.extend(right.keys)
            node.children.extend(right.children)
            del parent.children[idx + 1]
            del parent.keys[idx]
            self._free(right.id)
        return True

    def _check_node(self, node_id, low, high, reachable, is_root=False):
        if node_id in reachable:
            raise StorageError(f"node ID {node_id} reachable twice")
        reachable.add(node_id)
        node = self._node(node_id)
        if node.is_leaf:
            keys = node.keys
            if keys != sorted(keys):
                raise StorageError("leaf keys out of order")
            for k in keys:
                if (low is not NEG_INF and k < low) or (
                    high is not POS_INF and k >= high
                ):
                    raise StorageError(f"leaf key {k!r} outside [{low!r}, {high!r})")
            if not is_root and len(keys) < self._min_leaf_fill():
                raise StorageError("underfull leaf")
            if len(keys) >= self._order:
                raise StorageError("overfull leaf")
            return len(keys)
        if node.keys != sorted(node.keys):
            raise StorageError("inner keys out of order")
        if len(node.children) != len(node.keys) + 1:
            raise StorageError("inner child count mismatch")
        if not is_root and len(node.children) < self._min_inner_children():
            raise StorageError("underfull inner node")
        if len(node.children) > self._order:
            raise StorageError("overfull inner node")
        count = 0
        bounds = [low, *node.keys, high]
        for i, child_id in enumerate(node.children):
            count += self._check_node(child_id, bounds[i], bounds[i + 1], reachable)
        return count
