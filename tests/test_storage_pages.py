"""Slotted-page images and the fuzzy-checkpoint fallback paths.

* **Images** — a page is built whole from a leaf's payloads, and its
  image is byte-for-byte what a derivation from its slot directory
  gives (the derivation is kept here as the reference); it round-trips
  through ``from_bytes``, and a payload list that does not fit is
  refused.
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


class TestPageImages:
    def test_images_round_trip(self):
        payloads = [bytes([i]) * (20 + i) for i in range(8)]
        page = SlottedPage(1, payloads, page_size=512, page_lsn=9)
        clone = SlottedPage.from_bytes(page.to_bytes())
        assert [p for _, p in clone.records()] == payloads
        assert (clone.page_id, clone.page_lsn, clone.page_size) == (1, 9, 512)
        assert clone.to_bytes() == page.to_bytes()

    def test_oversized_payload_is_rejected_with_bounds(self):
        with pytest.raises(StorageError, match="full"):
            SlottedPage(1, [b"x" * 300], page_size=256)
        capacity = SlottedPage.capacity(256)
        assert SlottedPage(1, [b"x" * capacity], page_size=256)
        with pytest.raises(StorageError, match="full"):
            SlottedPage(1, [b"x" * (capacity + 1)], page_size=256)
        assert SlottedPage.capacity(MAX_PAGE_SIZE) < MAX_PAGE_SIZE

    def test_a_dead_slot_in_an_image_reads_as_no_record(self):
        """The format keeps ``offset == 0`` as a dead slot: a reader
        skips it, though no write-back makes one."""
        image = bytearray(SlottedPage(4, [b"aa", b"bb"], page_size=128).to_bytes())
        PAGE_SLOT.pack_into(image, PAGE_HEADER.size, 0, 0)
        fields = list(PAGE_HEADER.unpack_from(image, 0))
        PAGE_HEADER.pack_into(image, 0, *fields[:4], 0)
        PAGE_HEADER.pack_into(image, 0, *fields[:4], zlib.crc32(image))
        page = SlottedPage.from_bytes(bytes(image))
        assert list(page.records()) == [(1, b"bb")]
        with pytest.raises(StorageError, match="no record in slot 0"):
            page.read_record(0)


def ref_to_bytes(page_id, payloads, page_size, page_lsn):
    """The image, derived slot by slot: payloads packed down from the
    page end, the directory after the header, zeros between."""
    image = bytearray(page_size)
    offset, slots = page_size, []
    for payload in payloads:
        offset -= len(payload)
        image[offset:offset + len(payload)] = payload
        slots.append((offset, len(payload)))
    head = (page_id, page_lsn, len(slots), offset)
    PAGE_HEADER.pack_into(image, 0, *head, 0)
    cursor = PAGE_HEADER.size
    for slot in slots:
        PAGE_SLOT.pack_into(image, cursor, *slot)
        cursor += PAGE_SLOT.size
    PAGE_HEADER.pack_into(image, 0, *head, zlib.crc32(bytes(image)))
    return bytes(image)


class TestGeometryDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        payloads=st.lists(st.binary(min_size=1, max_size=90), max_size=12),
        page_size=st.sampled_from([128, 256, 512]),
        page_lsn=st.integers(0, 2**40),
    )
    def test_an_image_equals_the_slot_directory_derivation(
        self, payloads, page_size, page_lsn
    ):
        """Any payload list: the image is the derivation, or — when the
        payloads and their slots do not fit — the page is refused."""
        need = PAGE_HEADER.size + sum(len(p) + PAGE_SLOT.size for p in payloads)
        if need > page_size:
            with pytest.raises(StorageError, match="full"):
                SlottedPage(9, payloads, page_size=page_size)
            return
        page = SlottedPage(9, payloads, page_size=page_size, page_lsn=page_lsn)
        assert page.to_bytes() == ref_to_bytes(9, payloads, page_size, page_lsn)
        reloaded = SlottedPage.from_bytes(page.to_bytes())
        assert [p for _, p in reloaded.records()] == payloads


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
        removed = db.restart.recycle_segments(tmp_path)
        # its own store survived, so the truncated chain plus the
        # durable pages recover everything the recycled records said
        report = db.load_wal_segments_and_recover(tmp_path)
        assert report.pages_loaded > 0
        assert db.check_all_views() == []
        assert db.read_committed("v", ("p1",))["n"] == 4
        assert isinstance(removed, list)
