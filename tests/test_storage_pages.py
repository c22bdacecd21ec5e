"""Slotted-page geometry and the fuzzy-checkpoint fallback paths.

Two regressions pinned here, both found by driving the paged engine
hard:

* **Phantom garbage** — growing a record can re-place it inside the
  hole its own dead slot left behind (``free_end`` jumps past it). A
  running garbage counter double-counts that space, ``has_room_for``
  overpromises, and the next insert blows up on a "roomy" page.
  Garbage is ``page_size - free_end - live bytes``, two maintained
  totals, and a Hypothesis differential holds every maintained field
  (and the image) to its derivation from the slot directory, which is
  kept here as the reference.
* **Untrusted checkpoint** — a fuzzy checkpoint only shortcuts
  recovery when its durable page images are available and intact. A
  torn page, or a fresh process with an empty page store, must fall
  back to full log replay — not silently lose everything before the
  checkpoint.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import StorageError
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.query import AggregateSpec
from repro.storage.pages import (
    MAX_PAGE_SIZE,
    PAGE_HEADER,
    PAGE_SLOT,
    SlottedPage,
)
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


# -- the slot-directory derivations the O(1) fields replaced, kept as the
# -- reference the maintained geometry must equal after every operation


def ref_free_end(page):
    used = [off for off, _ in page._slots if off != 0]
    return min(used) if used else page.page_size


def ref_garbage(page):
    live = sum(length for off, length in page._slots if off != 0)
    return page.page_size - ref_free_end(page) - live


def ref_has_room_for(page, payload):
    need = len(payload)
    if not any(off == 0 for off, _ in page._slots):
        need += PAGE_SLOT.size
    dir_end = PAGE_HEADER.size + len(page._slots) * PAGE_SLOT.size
    return need <= ref_free_end(page) - dir_end + ref_garbage(page)


def ref_first_dead(page):
    return next(
        (i for i, (off, _) in enumerate(page._slots) if off == 0), None
    )


def ref_to_bytes(page):
    image = bytearray(page._buf)
    free_end = ref_free_end(page)
    head = (page.page_id, page.page_lsn, len(page._slots), free_end)
    PAGE_HEADER.pack_into(image, 0, *head, 0)
    cursor = PAGE_HEADER.size
    for offset, length in page._slots:
        PAGE_SLOT.pack_into(image, cursor, offset, length)
        cursor += PAGE_SLOT.size
    image[cursor:free_end] = bytes(free_end - cursor)
    PAGE_HEADER.pack_into(image, 0, *head, zlib.crc32(bytes(image)))
    return bytes(image)


def assert_geometry_matches_the_directory(page, probe):
    assert page._free_end == ref_free_end(page)
    assert page._garbage() == ref_garbage(page)
    assert page.live_count() == sum(1 for off, _ in page._slots if off)
    assert page.has_room_for(probe) == ref_has_room_for(page, probe)
    first_dead = ref_first_dead(page)
    assert (page._dead == 0) == (first_dead is None)
    assert first_dead is None or page._free_hint <= first_dead
    assert page.to_bytes() == ref_to_bytes(page)


_PAGE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 90)),
        st.tuples(st.just("update"), st.integers(0, 30), st.integers(0, 90)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("reload")),
    ),
    max_size=60,
)


class TestGeometryDifferential:
    @settings(max_examples=200, deadline=None)
    @given(ops=_PAGE_OPS, page_size=st.sampled_from([128, 256, 512]))
    def test_maintained_geometry_equals_the_slot_directory_derivation(
        self, ops, page_size
    ):
        """Random insert / update / delete / compact / reload sequences:
        after every step — failed ones included — ``free_end``, garbage,
        ``has_room_for``, the free-slot hint and ``to_bytes()`` equal
        what the slot directory says, and an insert lands in the lowest
        dead slot."""
        page = SlottedPage(9, page_size=page_size)
        contents = {}
        for step, op in enumerate(ops):
            fill = bytes([step % 251 + 1])
            if op[0] == "insert":
                payload = fill * op[1]
                fits = ref_has_room_for(page, payload)
                lowest, appended = ref_first_dead(page), page.slot_count()
                try:
                    slot = page.insert_record(payload)
                except StorageError:
                    assert not fits
                else:
                    assert fits
                    assert slot == (appended if lowest is None else lowest)
                    contents[slot] = payload
            elif op[0] == "update" and contents:
                slot = sorted(contents)[op[1] % len(contents)]
                payload = fill * op[2]
                try:
                    page.update_record(slot, payload)
                except StorageError:
                    pass  # did not fit: nothing may have moved
                else:
                    contents[slot] = payload
            elif op[0] == "delete" and contents:
                slot = sorted(contents)[op[1] % len(contents)]
                page.delete_record(slot)
                del contents[slot]
            elif op[0] == "compact":
                page._compact()
            elif op[0] == "reload":
                page = SlottedPage.from_bytes(page.to_bytes())
            assert dict(page.records()) == contents
            assert_geometry_matches_the_directory(page, probe=fill * 40)


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
        with db.session() as s:
            s.insert("sales", {"id": i, "product": f"p{i % 3}", "amount": i})


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
