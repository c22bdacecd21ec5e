"""Slotted-page geometry and the fuzzy-checkpoint fallback paths.

Two regressions pinned here, both found by driving the paged engine
hard:

* **Phantom garbage** — growing a record can re-place it inside the
  hole its own dead slot left behind (``free_end`` jumps past it). A
  running garbage counter double-counts that space, ``has_room_for``
  overpromises, and the next insert blows up on a "roomy" page.
  Garbage is now derived from the slot directory.
* **Untrusted checkpoint** — a fuzzy checkpoint only shortcuts
  recovery when its durable page images are available and intact. A
  torn page, or a fresh process with an empty page store, must fall
  back to full log replay — not silently lose everything before the
  checkpoint.
"""

import pytest

from repro.common import StorageError
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.query import AggregateSpec
from repro.storage.pages import MAX_PAGE_SIZE, SlottedPage
from repro.views import AggregateView


class TestGarbageAccounting:
    def test_grow_into_own_hole_keeps_accounting_exact(self):
        # 256-byte page: two 92-byte records leave 44 contiguous bytes.
        page = SlottedPage(1, page_size=256)
        page.insert_record(b"a" * 92)
        slot = page.insert_record(b"b" * 92)
        # Growing slot 1 by one byte re-places it inside the space its
        # own dead slot vacated; no byte on the page is reclaimable.
        page.update_record(slot, b"c" * 93)
        assert page.read_record(slot) == b"c" * 93
        assert not page.has_room_for(b"x" * 93)
        with pytest.raises(StorageError, match="full"):
            page.insert_record(b"x" * 93)

    def test_dead_slot_space_is_reclaimed_by_compaction(self):
        page = SlottedPage(1, page_size=256)
        first = page.insert_record(b"a" * 100)
        page.insert_record(b"b" * 100)
        page.delete_record(first)
        assert page.has_room_for(b"y" * 100)
        slot = page.insert_record(b"y" * 100)
        assert page.read_record(slot) == b"y" * 100

    def test_images_round_trip_through_arbitrary_mutation(self):
        page = SlottedPage(1, page_size=512)
        slots = [page.insert_record(bytes([i]) * (20 + i)) for i in range(8)]
        for s in slots[::2]:
            page.delete_record(s)
        grown = page.insert_record(b"z" * 120)
        page.update_record(grown, b"w" * 150)
        clone = SlottedPage.from_bytes(page.to_bytes())
        assert dict(clone.records()) == dict(page.records())
        assert clone.free_space() == page.free_space()

    def test_oversized_payload_is_rejected_with_bounds(self):
        page = SlottedPage(1, page_size=256)
        assert not page.has_room_for(b"x" * 300)
        with pytest.raises(StorageError, match="full"):
            page.insert_record(b"x" * 300)
        assert SlottedPage.capacity(MAX_PAGE_SIZE) < MAX_PAGE_SIZE


def paged_db():
    db = Database(
        EngineConfig(
            aggregate_strategy="escrow", checkpoint_interval=3,
            buffer_pool_frames=4, page_size=256,
        )
    )
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


def insert_rows(db, n=12):
    for i in range(1, n + 1):
        with db.transaction() as txn:
            db.insert(txn, "sales", {"id": i, "product": f"p{i % 3}", "amount": i})


class TestUntrustedCheckpointFallback:
    def test_torn_pages_force_full_replay_not_data_loss(self):
        db = paged_db()
        # 13 rows: not a multiple of the checkpoint interval, so the
        # manual checkpoint below still has dirty pages to write back
        insert_rows(db, 13)
        injector = FaultInjector(seed=1)
        db.install_fault_injector(injector)
        injector.arm("page.torn_write", probability=1.0, times=2)
        db.take_checkpoint()  # these write-backs tear
        log_len = len(db.log)
        report = db.simulate_crash_and_recover()
        assert db.counters.as_dict().get("storage.torn_pages", 0) >= 1
        # the fuzzy checkpoint's pages are untrustworthy: recovery must
        # re-analyze the whole log, not start at the checkpoint
        assert report.analyzed_records == log_len
        assert db.check_all_views() == []
        assert db.read_committed("v", ("p1",))["n"] == 5
        assert db.read_committed("v", ("p1",))["t"] == 35

    def test_fresh_process_segment_reload_replays_in_full(self, tmp_path):
        src = paged_db()
        insert_rows(src)
        src.dump_wal_segments(tmp_path)
        # a fresh process: same schema, but the page store is empty, so
        # the fuzzy checkpoints in the chain must not be trusted
        fresh = paged_db()
        report = fresh.load_wal_segments_and_recover(tmp_path)
        assert report.pages_loaded == 0
        assert fresh.check_all_views() == []
        for group in ("p0", "p1", "p2"):
            assert (
                fresh.read_committed("v", (group,))
                == src.read_committed("v", (group,))
            )

    def test_same_process_reload_still_seeds_from_pages(self, tmp_path):
        db = paged_db()
        insert_rows(db)
        db.take_checkpoint()
        db.dump_wal_segments(tmp_path)
        removed = db.recycle_wal_segments(tmp_path)
        # its own store survived, so the truncated chain plus the
        # durable pages recover everything the recycled records said
        report = db.load_wal_segments_and_recover(tmp_path)
        assert report.pages_loaded > 0
        assert db.check_all_views() == []
        assert db.read_committed("v", ("p1",))["n"] == 4
        assert isinstance(removed, list)
