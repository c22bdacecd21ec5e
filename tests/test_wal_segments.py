"""Segment-chain loss detection: the ``wal.floor`` truncation marker.

LSN continuity between surviving neighbours cannot notice a lost *head*
segment (nothing precedes it to contradict) or a lost *tail* segment
(nothing follows it). The marker written by ``dump_segments`` and
rewritten by ``recycle_segments`` pins the chain's legitimate first LSN
and segment count, so every loss lands in ``undecodable_tail`` and the
salvage pass — while legitimate recycling stays silent.
"""

import os

import pytest

from repro.common import StorageError
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.wal import LogManager
from repro.wal.records import AbortRecord, CommitRecord
from repro.wal.segments import (
    dump_segments,
    load_segments,
    read_floor,
    recycle_segments,
)


def flushed_log(txns=12):
    log = LogManager()
    for txn in range(1, txns + 1):
        log.append(AbortRecord(txn))  # filler: any small record
        log.append(CommitRecord(txn, txn))
    log.flush()
    return log


class TestFloorMarker:
    def test_dump_writes_the_marker(self, tmp_path):
        log = flushed_log()
        paths = dump_segments(log, tmp_path, segment_bytes=64)
        marker = read_floor(tmp_path)
        assert marker == {"first_lsn": 1, "segments": len(paths)}

    def test_recycle_moves_the_marker_to_the_surviving_head(self, tmp_path):
        log = flushed_log()
        dump_segments(log, tmp_path, segment_bytes=64)
        removed = recycle_segments(tmp_path, keep_from_lsn=9)
        assert removed
        marker = read_floor(tmp_path)
        assert marker["first_lsn"] > 1
        reloaded = load_segments(tmp_path)
        assert reloaded.undecodable_tail == 0
        assert reloaded.tail_lsn() == log.tail_lsn()
        assert reloaded._records[0].lsn == marker["first_lsn"]

    def test_recycling_everything_leaves_a_clean_empty_chain(self, tmp_path):
        log = flushed_log()
        paths = dump_segments(log, tmp_path, segment_bytes=64)
        assert recycle_segments(tmp_path, keep_from_lsn=log.tail_lsn() + 1) == paths
        reloaded = load_segments(tmp_path)
        assert reloaded.undecodable_tail == 0
        assert not reloaded._records


class TestSegmentLossDetection:
    def test_lost_head_segment_is_detected(self, tmp_path):
        """The head vanishing leaves a continuous-looking suffix; only
        the floor marker betrays that LSN 1 should still be present."""
        log = flushed_log()
        paths = dump_segments(log, tmp_path, segment_bytes=64)
        assert len(paths) > 2
        os.remove(paths[0])
        reloaded = load_segments(tmp_path)
        assert reloaded.undecodable_tail > 0
        assert not reloaded._records  # nothing past the hole is trusted

    def test_lost_head_after_recycle_is_detected(self, tmp_path):
        """After a legitimate recycle the chain starts above LSN 1 — a
        further (illegitimate) head loss must still be flagged."""
        log = flushed_log()
        dump_segments(log, tmp_path, segment_bytes=64)
        recycle_segments(tmp_path, keep_from_lsn=9)
        survivors = sorted(p for p in os.listdir(tmp_path) if p.endswith(".seg"))
        os.remove(tmp_path / survivors[0])
        reloaded = load_segments(tmp_path)
        assert reloaded.undecodable_tail > 0

    def test_lost_tail_segment_is_detected(self, tmp_path):
        """A lost tail keeps the surviving prefix perfectly continuous;
        the marker's segment count is what catches it."""
        log = flushed_log()
        paths = dump_segments(log, tmp_path, segment_bytes=64)
        os.remove(paths[-1])
        reloaded = load_segments(tmp_path)
        assert reloaded.undecodable_tail > 0
        assert reloaded.tail_lsn() < log.tail_lsn()  # prefix still usable

    def test_fault_site_eating_the_head_segment_is_reported(self, tmp_path):
        """``wal.segment_lost`` firing on segment 1 during the dump must
        surface on load, exactly as the fault-site description promises."""
        log = flushed_log()
        faults = FaultInjector(seed=0)
        faults.arm("wal.segment_lost", match="1", times=1)
        dump_segments(log, tmp_path, segment_bytes=64, faults=faults)
        reloaded = load_segments(tmp_path)
        assert reloaded.undecodable_tail > 0
        assert not reloaded._records

    def test_engine_recovery_reports_the_loss(self, tmp_path):
        """End to end: losing the head segment of a dumped WAL lands in
        the salvage report instead of silently recovering nothing."""
        db = Database(EngineConfig(wal_segment_bytes=1024))
        db.create_table("t", ("id", "v"), ("id",))
        for i in range(1, 30):
            with db.session() as s:
                s.insert("t", {"id": i, "v": i})
        paths = db.dump_wal_segments(tmp_path)
        assert len(paths) > 1

        fresh = Database(EngineConfig(wal_segment_bytes=1024))
        fresh.create_table("t", ("id", "v"), ("id",))
        os.remove(paths[0])
        report = fresh.load_wal_segments_and_recover(tmp_path)
        assert report.salvage is not None
        assert report.salvage["undecodable_lines"] > 0


def paged_db(ids=()):
    """A tiny-pool engine, so even a few rows reach the page store."""
    db = Database(EngineConfig(
        buffer_pool_frames=4, page_size=256, checkpoint_interval=5,
        wal_segment_bytes=4096,
    ))
    db.execute(
        """
        CREATE TABLE t (id, grp, v, PRIMARY KEY (id));
        CREATE UNIQUE INDEXED VIEW by_grp AS
            SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY grp;
        """
    )
    for i in ids:
        db.execute(f"INSERT INTO t VALUES ({i}, {i % 3}, {i})")
    return db


class TestRestoreTargetMustBeSchemaOnly:
    """Recovery seeds from the page store and gates redo on page LSNs;
    pages written under another log would pass for the loaded log's
    durable images and silently drop view rows. The restore refuses."""

    def test_segments_into_a_populated_engine_are_refused(self, tmp_path):
        src = paged_db(range(1, 40))
        src.dump_wal_segments(tmp_path)
        target = paged_db(range(100, 130))
        with pytest.raises(StorageError, match="page store already holds"):
            target.load_wal_segments_and_recover(tmp_path)
        # refused before anything was replaced: the target is intact
        assert target.check_all_views() == []
        assert target.read_committed("t", (100,)) is not None

    def test_schema_only_target_restores_every_view_row(self, tmp_path):
        src = paged_db(range(1, 40))
        src.dump_wal_segments(tmp_path)
        target = paged_db()
        target.load_wal_segments_and_recover(tmp_path)
        assert target.check_all_views() == []
        assert target.execute("SELECT * FROM by_grp") == src.execute(
            "SELECT * FROM by_grp"
        )

    def test_an_engine_may_reload_its_own_recycled_chain(self, tmp_path):
        db = paged_db(range(1, 40))
        before = db.execute("SELECT * FROM by_grp")
        db.take_checkpoint()
        db.dump_wal_segments(tmp_path)
        assert db.recycle_wal_segments(tmp_path)  # some history is gone
        report = db.load_wal_segments_and_recover(tmp_path)
        assert report.pages_loaded > 0  # and lives on in the pages
        assert db.check_all_views() == []
        assert db.execute("SELECT * FROM by_grp") == before

    def test_a_recycled_chain_into_a_schema_only_engine_is_refused(
        self, tmp_path
    ):
        """The dropped segments' history lives only in the source's page
        store; a fresh engine would recover the tail and lose the rest."""
        src = paged_db(range(1, 61))
        src.dump_wal_segments(tmp_path)
        assert src.recycle_wal_segments(tmp_path)
        target = paged_db()
        with pytest.raises(StorageError, match="recycled and starts at LSN"):
            target.load_wal_segments_and_recover(tmp_path)
        assert target.execute("SELECT * FROM t") == []  # nothing replaced

    def test_own_chain_older_than_the_pages_is_refused(self, tmp_path):
        db = paged_db(range(1, 40))
        db.dump_wal_segments(tmp_path)
        db.execute("INSERT INTO t VALUES (40, 1, 40)")  # pages move on
        with pytest.raises(StorageError, match="schema-only"):
            db.load_wal_segments_and_recover(tmp_path)
