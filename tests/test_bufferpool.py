"""The dirty-leaf table: write-back respects WAL-before-write and the
structure-change order, the engine keeps both under memory pressure, and
a transaction packs nothing.

The contracted behaviours (``docs/STORAGE.md`` §2, §4):

* writing a leaf back forces the WAL durable up to the leaf's
  ``page_lsn`` before the image reaches the store;
* a leaf that gave entries away is written only after the leaf that
  received them, and a freed leaf's image leaves the store only after
  its receiver's image is written (rule (b));
* bytes are produced only at write-back.
"""

import json

import pytest

from repro.catalog import RowLayout
from repro.common import Row
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.storage import bufferpool
from repro.storage.btree import BPlusTree
from repro.storage.bufferpool import BufferPool, PageStore, durable_winners
from repro.storage.pages import SlottedPage
from repro.storage.records import VersionedRecord
from repro.wal import LogManager
from repro.wal.codec import pack_entry
from repro.wal.records import InsertRecord
from repro.wal.segments import load_segments
from repro.views import AggregateView


#: the layouts the hand-built trees and pages below pack against
ID = {name: RowLayout(i, name, ("id",)) for i, name in enumerate("abct", 1)}
T = RowLayout(9, "t", ("id", "v"))
TABLE = {layout.id: layout for layout in (*ID.values(), T)}


def make_pool(capacity, log):
    pool = BufferPool(capacity=capacity, log=log)
    pool.attach(PageStore(), leaves=())
    return pool


def put(tree, key, lsn):
    """One change to a paged tree, the way an index makes it."""
    tree.setdefault(key, VersionedRecord(key, Row(id=key[0]), lsn=lsn), lsn)
    tree._pages.write_excess()


class TestWalBeforeWrite:
    def _log_with_records(self, n):
        log = LogManager()
        for i in range(1, n + 1):
            log.append(InsertRecord(1, ID["t"], (i,), Row({"id": i})))
        return log

    def test_dirty_eviction_flushes_the_wal_to_page_lsn(self):
        log = self._log_with_records(5)
        assert log.flushed_lsn == 0  # nothing durable yet
        pool = make_pool(2, log)
        first, second, third = (BPlusTree(pages=pool, layout=ID[n]) for n in "abc")
        put(first, (1,), 4)  # a leaf dirty at pageLSN 4
        put(second, (1,), 5)
        put(third, (1,), 5)  # over the cap: the least recently dirtied goes
        assert pool.dirty_evictions == 1
        assert pool.forced_wal_flushes == 1
        # WAL-before-write: the flush covered the page's LSN first
        assert log.flushed_lsn >= 4
        (page_id,) = pool.store.page_ids()
        assert pool.store.read_page(page_id).page_lsn == 4

    def test_a_durable_page_lsn_is_written_back_without_a_flush(self):
        log = self._log_with_records(3)
        log.flush()
        pool = make_pool(2, log)
        for name in "abc":
            put(BPlusTree(pages=pool, layout=ID[name]), (1,), 2)
        assert pool.dirty_evictions == 1
        assert pool.forced_wal_flushes == 0
        assert log.flush_count == 1

    def test_flush_target_is_min_of_page_lsn_and_tail(self):
        log = self._log_with_records(3)
        pool = make_pool(4, log)
        put(BPlusTree(pages=pool, layout=ID["t"]), (1,), 2)
        assert pool.write_older_than(None) == 1
        assert log.flushed_lsn == 2
        (page_id,) = pool.store.page_ids()
        assert pool.store.read_page(page_id).page_lsn == 2


def ordered_db():
    """Order-4 trees (a leaf holds at most 3 entries) on a table with no
    view, so every split and merge below is one of the test's."""
    db = Database(EngineConfig(btree_order=4))
    db.create_table("t", ("id", "v"), ("id",))
    return db


def rows(db, ids):
    with db.session() as s:
        for i in ids:
            s.insert("t", {"id": i, "v": f"row {i}"})


def erase(db, ids):
    with db.session() as s:
        for i in ids:
            s.delete("t", (i,))
    db.run_ghost_cleanup()


def every_prefix_keeps(db, change, key, tmp_path):
    """Make every leaf durable, run ``change``, write back the leaves it
    dirtied, then recover a same-schema engine from the log and from
    every prefix of that write-back's timeline: ``key`` must survive
    each. Nothing was dirty before ``change``, so redo starts after the
    records that wrote ``key``: only an image can keep it. Returns the
    timeline, ``(page_id, image or None for a drop)``."""
    db.take_checkpoint()
    db.take_checkpoint()  # the second writes what the first left dirty
    assert db.indexes.pool.dirty_page_table() == {}
    base = db.indexes.store.snapshot()
    change(db)
    timeline = []
    db.indexes.store.write_listener = lambda pid, data: timeline.append((pid, data))
    db.indexes.pool.write_older_than(None)
    db.dump_wal_segments(tmp_path)
    for cut in range(len(timeline) + 1):
        images = dict(base)
        for page_id, data in timeline[:cut]:
            if data is None:
                images.pop(page_id, None)
            else:
                images[page_id] = data
        fresh = ordered_db()
        fresh.log = load_segments(tmp_path)
        fresh.indexes.store.restore(images)
        fresh.restart.recover()
        assert fresh.index("t").get_record(key) is not None, cut
    return timeline


class TestEntryMovesSurviveCrashes:
    """Structure changes log nothing, so the write-back order is what
    keeps an entry that moved between leaves in some durable image."""

    def test_a_split_with_only_the_giver_durable_keeps_the_key(self, tmp_path):
        db = ordered_db()
        rows(db, (1, 2, 3))
        # inserting 4 splits the one leaf [1 2 3], and 3 moves to the new
        # leaf: it is in the giver's image alone until the receiver's is
        # written, so the receiver goes first
        timeline = every_prefix_keeps(
            db, lambda d: rows(d, (4,)), (3,), tmp_path
        )
        (receiver, image), (giver, _) = timeline
        assert (3,) in {
            key for key, _ in durable_winners_of(image, db.catalog.layouts())
        }
        assert giver in db.indexes.store.snapshot() and receiver != giver

    def test_a_merge_with_only_the_freed_leaf_durable_keeps_the_key(
        self, tmp_path
    ):
        db = ordered_db()
        rows(db, (1, 2, 3, 4))
        erase(db, (2, 4))  # leaves [1] [3]
        # erasing 1 empties the left leaf, which absorbs [3]: the right
        # leaf is freed, and its image holds 3 until the left's is written
        timeline = every_prefix_keeps(
            db, lambda d: erase(d, (1,)), (3,), tmp_path
        )
        assert [data is None for _, data in timeline] == [False, True]

    def test_leaves_that_gave_each_other_entries_break_the_cycle(self):
        """Two leaves that borrowed from each other, neither written
        since, cannot both go second: one is written under a new page
        id, and its old image stays until the other is written."""
        pool = make_pool(64, LogManager())
        tree = BPlusTree(order=4, pages=pool, layout=ID["t"])
        lsn = iter(range(1, 100))
        for key in (1, 2, 3, 4):  # leaves [1 2] [3 4], both durable
            put(tree, (key,), next(lsn))
        pool.write_older_than(None)
        base = pool.store.snapshot()
        tree.pop((4,), lsn=next(lsn))
        tree.pop((3,), lsn=next(lsn))  # the right leaf borrows 2: [1] [2]
        put(tree, (5,), next(lsn))  # [1] [2 5]
        tree.pop((1,), lsn=next(lsn))  # the left one borrows 2 back: [2] [5]
        timeline = []
        pool.store.write_listener = lambda pid, data: timeline.append(
            (pid, data)
        )
        pool.write_older_than(None)
        pool.write_older_than(None)  # the relocated leaf's old image goes
        assert len(timeline) == 3 and timeline[-1][1] is None
        assert timeline[0][0] not in base  # written under a new page id
        for cut in range(len(timeline) + 1):
            images = dict(base)
            for page_id, data in timeline[:cut]:
                if data is None:
                    images.pop(page_id, None)
                else:
                    images[page_id] = data
            keys = {
                key for image in images.values()
                for key, _ in durable_winners_of(image)
            }
            assert (2,) in keys, cut  # 5's insert is in the log, 2's not
        assert keys == {(2,), (5,)}
        assert pool.dirty_page_table() == {}

    def test_a_key_that_moves_on_keeps_its_durable_giver_waiting(self):
        """5 moves from a durable leaf to a new one, then on to a third,
        before either new leaf is written: the durable leaf's image holds
        its only copy until the third leaf's is written. (The crash
        machine found this under deferred maintenance: the middle leaf
        was written first, releasing the durable one, and 5 was lost.)"""
        pool = make_pool(64, LogManager())
        tree = BPlusTree(order=4, pages=pool, layout=ID["t"])
        lsn = iter(range(1, 100))
        for key in (0, 2, 5):  # one durable leaf [0 2 5]
            put(tree, (key,), next(lsn))
        pool.write_older_than(None)
        base = pool.store.snapshot()
        put(tree, (1,), next(lsn))  # [0 1] [2 5]
        put(tree, (3,), next(lsn))
        put(tree, (4,), next(lsn))  # [0 1] [2 3] [4 5]
        timeline = []
        pool.store.write_listener = lambda pid, data: timeline.append(
            (pid, data)
        )
        pool.write_older_than(None)
        assert len(timeline) == 3
        for cut in range(len(timeline) + 1):
            images = dict(base)
            images.update(timeline[:cut])
            keys = {
                key for image in images.values()
                for key, _ in durable_winners_of(image)
            }
            assert (5,) in keys, cut  # no record of 5 is past the images


def durable_winners_of(image, layouts=TABLE):
    """The ``(key, row)`` entries of one page image."""
    store = PageStore()
    store.restore({0: image})
    table, _, _ = durable_winners(store, layouts)
    return [(key, row) for (_, key), (_, row, _) in table.items()]


class TestDurableWinners:
    """Recovery's one read of the device (``docs/STORAGE.md`` §4 step 1):
    a pure function of the store that elects the newest entry per key."""

    @staticmethod
    def page_of(page_id, *entries):
        """A page image holding ``(layout, key, row, ghost, lsn)`` entries,
        packed as a write-back packs them."""
        return SlottedPage(
            page_id, [pack_entry(*entry) for entry in entries], page_size=512
        )

    def test_an_empty_store_is_an_empty_table(self):
        assert durable_winners(PageStore(), TABLE) == ({}, 0, 0)

    def test_newest_lsn_wins_whatever_page_it_sits_on(self):
        store = PageStore()
        store.write_page(self.page_of(
            1, (T, (1,), {"id": 1, "v": "new"}, False, 9),
        ))
        store.write_page(self.page_of(
            2, (T, (1,), {"id": 1, "v": "old"}, False, 4),
            (T, (2,), {"id": 2, "v": "only"}, True, 5),
        ))
        table, pages_loaded, torn = durable_winners(store, TABLE)
        assert (pages_loaded, torn) == (2, 0)
        assert table == {
            ("t", (1,)): (9, {"id": 1, "v": "new"}, False),
            ("t", (2,)): (5, {"id": 2, "v": "only"}, True),
        }

    def test_an_lsn_tie_goes_to_the_later_page(self):
        store = PageStore()
        store.write_page(self.page_of(
            7, (T, (1,), {"id": 1, "v": "moved"}, False, 6),
        ))
        store.write_page(self.page_of(
            3, (T, (1,), {"id": 1, "v": "left behind"}, False, 6),
        ))
        table, _, _ = durable_winners(store, TABLE)
        assert table[("t", (1,))][1]["v"] == "moved"

    def test_a_torn_page_means_no_table_but_intact_pages_still_count(self):
        store = PageStore()
        store.write_page(self.page_of(1, (ID["t"], (1,), {"id": 1}, False, 3)))
        store.write_page(self.page_of(2, (ID["t"], (2,), {"id": 2}, False, 4)))
        images = store.snapshot()
        torn = bytearray(images[2])
        torn[len(torn) // 2] ^= 0xFF
        images[2] = bytes(torn)
        store.restore(images)
        assert durable_winners(store, TABLE) == (None, 1, 1)

    def test_reading_writes_nothing(self):
        db = Database(EngineConfig(buffer_pool_frames=2, btree_order=4))
        db.create_table("t", ("id", "data"), ("id",))
        for i in range(12):
            with db.session() as s:
                s.insert("t", {"id": i, "data": "x" * 20})
        before, writes = db.indexes.store.snapshot(), db.indexes.store.writes
        assert before  # the 2-leaf cap wrote leaves back
        layouts = db.catalog.layouts()
        first = durable_winners(db.indexes.store, layouts)
        assert durable_winners(db.indexes.store, layouts) == first
        assert db.indexes.store.snapshot() == before
        assert db.indexes.store.writes == writes


def sales_db(**config):
    db = Database(EngineConfig(**config))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v",
        "sales",
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("t", "amount"),
        ],
    ))
    return db


class TestEngineUnderMemoryPressure:
    """A whole engine on a 2-leaf dirty table: write-backs mid-transaction
    force WAL flushes, and nothing the views promise is lost."""

    def build(self):
        return sales_db(
            buffer_pool_frames=2, btree_order=4, checkpoint_interval=3
        )

    def test_pressure_run_stays_consistent_and_flushes_early(self):
        db = self.build()
        # one big transaction: leaves dirtied at unflushed LSNs are
        # written back mid-transaction, so the WAL must be flushed first
        with db.session() as s:
            for i in range(1, 25):
                s.insert(
                    "sales",
                    {"id": i, "product": f"p{i % 5}", "amount": i},
                )
        storage = db.stats()["storage"]
        assert storage["pool"]["evictions"] > 0
        assert storage["pool"]["dirty_evictions"] > 0
        assert storage["pool"]["forced_wal_flushes"] > 0
        assert db.check_all_views() == []
        assert db.check_integrity().clean

    def test_recovery_after_pressure_run(self):
        db = self.build()
        for i in range(1, 25):
            with db.session() as s:
                s.insert(
                    "sales",
                    {"id": i, "product": f"p{i % 5}", "amount": i},
                )
        with db.session() as s:  # past the last checkpoint, written back
            for i in range(25, 31):  # mid-transaction
                s.insert(
                    "sales",
                    {"id": i, "product": f"p{i % 5}", "amount": i},
                )
        report = db.simulate_crash_and_recover()
        assert report.pages_loaded > 0  # durable pages seeded recovery
        assert report.redo_skipped > 0  # and gated the redo they cover
        assert db.check_all_views() == []
        assert db.check_integrity().clean
        assert db.read_committed("v", ("p1",)) == {
            "product": "p1", "n": 6, "t": 1 + 6 + 11 + 16 + 21 + 26,
        }


class TestWriteBackCounts:
    """Where the bytes are made: at write-back, one pack per entry, and
    nowhere on the path of a transaction that stays under the cap."""

    @pytest.fixture
    def packs(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append((args[0].name, args[1]))
            return pack_entry(*args)

        monkeypatch.setattr(bufferpool, "pack_entry", counted)
        return calls

    @pytest.fixture
    def json_calls(self, monkeypatch):
        calls = []

        def counted(original):
            def wrapper(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)
            return wrapper

        for owner, name in (
            (json.JSONEncoder, "encode"), (json.JSONEncoder, "iterencode"),
            (json.JSONDecoder, "decode"), (json, "dumps"), (json, "loads"),
        ):
            monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
        return calls

    def test_an_order_transaction_packs_nothing(self, packs, json_calls):
        db = sales_db()  # a 64-leaf cap: one transaction cannot reach it
        with db.session() as s:  # seed the groups, as the workload does
            for product in range(7):
                s.insert("sales", {"id": -1 - product, "product": product,
                                   "amount": 1})
        writes, records = db.indexes.store.writes, len(db.log)
        json_calls.clear()
        for t in range(20):  # the order_api shape: four inserts, one view
            with db.session() as s:
                for i in range(4):
                    s.insert("sales", {"id": 4 * t + i,
                                       "product": (t + i) % 7, "amount": i})
        assert len(db.log) - records == 20 * 9  # 8 row changes + COMMIT
        assert packs == []
        assert json_calls == []  # records are struct-packed, never JSON
        assert db.indexes.store.writes == writes == 0
        assert db.stats()["storage"]["pool"]["dirty"] > 0
        assert db.check_integrity().clean

    def test_a_write_back_packs_each_entry_of_the_leaf_once(self, packs):
        db = sales_db()
        with db.session() as s:
            for i in range(10):
                s.insert("sales", {"id": i, "product": i % 3, "amount": i})
        db.take_checkpoint()  # the first checkpoint writes every dirty leaf
        leaves = [
            leaf for name in db.index_names()
            for leaf in db.index(name).leaves()
        ]
        assert sorted(packs) == sorted(
            (leaf.layout.name, record.key)
            for leaf in leaves for record in leaf.values
        )
        assert db.stats()["storage"]["store_writes"] == len(leaves) == 2
        assert db.stats()["storage"]["pool"]["dirty"] == 0

    def test_a_leaf_written_again_repacks_only_the_records_that_moved(
        self, packs
    ):
        db = sales_db()
        ids = iter(range(100))

        def insert(product):
            with db.session() as s:
                s.insert("sales", {"id": next(ids), "product": product,
                                   "amount": 1})

        def write_back():
            db.take_checkpoint()
            db.take_checkpoint()  # the second writes what the first left

        for product in (0, 1, 2, 0, 1, 2):
            insert(product)
        write_back()  # the leaves' first images
        insert(0)
        write_back()  # their second: every entry's bytes are kept
        packs.clear()
        insert(1)
        write_back()
        assert sorted(packs) == [("sales", (7,)), ("v", (1,))]
        packs.clear()
        with db.session() as s:  # group 2 written with its delta pending
            s.insert("sales", {"id": next(ids), "product": 2, "amount": 1})
            db.indexes.pool.write_older_than(None)
        assert ("v", (2,)) in packs
        packs.clear()
        insert(0)  # the view leaf again, after the commit folded 2's delta
        write_back()
        assert sorted(packs) == [("sales", (9,)), ("v", (0,))]
        assert db.check_integrity().clean  # the kept bytes are the folded row's
