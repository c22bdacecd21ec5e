"""Checksummed WAL + the salvage pass.

The contract under test (docs/ROBUSTNESS.md, "Recovery hardening"):
every durable record carries a CRC over its packed bytes;
recovery runs a salvage scan first, truncates the log at the first bad
checksum, and classifies the loss — committed work rolled back
(``lost_commits``) is *never* silent, uncommitted debris is honest
``tail_garbage``. A negative control with checksums disabled proves the
integrity checker is a real oracle, not a tautology.
"""

import json
import pathlib
import zlib

import pytest

from repro.common import ReproError, WalCorruptionError
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.obs import validate_recovery_report
from repro.query import AggregateSpec
from repro.wal import LogRecord, RecordType, codec, salvage
from repro.wal.records import RowChangeRecord
from repro.wal.segments import load_segments
from repro.workload import BY_PRODUCT, SALES
from repro.views import AggregateView
from tests.test_wal_codec import frames_of


def sales_db(**kwargs):
    db = Database(EngineConfig(**kwargs))
    db.create_table(SALES, ("id", "product", "customer", "amount"), ("id",))
    db.create_view(AggregateView(
        BY_PRODUCT,
        SALES,
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n_sales"),
            AggregateSpec.sum_of("revenue", "amount"),
        ],
    ))
    return db


def sale(i, product="ant", amount=10):
    return {"id": i, "product": product, "customer": 1, "amount": amount}


def first_record_of_last_commit(log):
    """The record that opened the last committed transaction."""
    txn_id = log.records_by_type(RecordType.COMMIT)[-1].txn_id
    return next(r for r in log.records() if r.txn_id == txn_id)


def commit_sales(db, ids, **kw):
    for i in ids:
        with db.session() as s:
            s.insert(SALES, sale(i, **kw))


def stored(log):
    """Every stored frame of ``log``, by LSN."""
    return [log.body(lsn, lsn) for lsn in range(log.first_lsn, log.tail_lsn() + 1)]


class TestChecksums:
    def test_every_stored_frame_carries_its_payloads_crc(self):
        db = sales_db()
        commit_sales(db, range(1, 4))
        for lsn in range(1, db.log.tail_lsn() + 1):
            payload = db.log.payload(lsn)
            assert db.log.body(lsn, lsn) == codec.frame(payload, zlib.crc32(payload))
        assert db.log.damaged_lsn() is None

    def test_checksums_off_stores_the_same_frames_and_salvage_looks_away(self):
        db = sales_db(wal_checksums=False)
        commit_sales(db, [1])
        payload = db.log.payload(1)
        assert db.log.body(1, 1) == codec.frame(payload, zlib.crc32(payload))
        db.log.corrupt(1)
        assert db.log.damaged_lsn() == 1
        assert salvage(db.log, verify=db.config.wal_checksums) is None

    def test_dump_load_round_trip_keeps_every_frame(self, tmp_path):
        db = sales_db()
        commit_sales(db, range(1, 4))
        db.dump_wal_segments(tmp_path)
        loaded = load_segments(tmp_path)
        assert stored(loaded) == stored(db.log)
        assert salvage(loaded) is None

    def test_corruption_flips_one_value_bit_or_damages_the_crc(self):
        """A row change's corruption is one flipped bit of its row or
        deltas that still decodes — another record, under a CRC that no
        longer matches; any other record keeps its payload and gets a
        damaged CRC."""
        tail = None
        lsn = 1
        while tail is None or lsn <= tail:
            db = sales_db()
            commit_sales(db, [1])
            tail = db.log.tail_lsn()
            record = db.log.record_at(lsn)
            before, payload = db.log.body(lsn, lsn), db.log.payload(lsn)
            db.log.corrupt(lsn)
            assert db.log.damaged_lsn() == lsn
            after = db.log.body(lsn, lsn)
            flipped = sum(bin(a ^ b).count("1") for a, b in zip(before, after))
            if isinstance(record, RowChangeRecord):
                assert flipped == 1 and after[:8] == before[:8]
                damaged = db.log.record_at(lsn)
                assert (damaged.key, damaged.layout) == (record.key, record.layout)
                assert damaged.to_dict() != record.to_dict()
            else:
                assert db.log.payload(lsn) == payload and after[:4] == before[:4]
            lsn += 1


class TestSalvage:
    def test_clean_log_salvages_to_none(self):
        db = sales_db()
        commit_sales(db, range(1, 4))
        db.log.flush()
        assert salvage(db.log) is None

    def test_lost_commit_is_classified(self):
        """Corrupting a committed transaction's record drops its COMMIT:
        the loss is committed work and must be named."""
        db = sales_db()
        commit_sales(db, range(1, 4))
        db.log.flush()
        # corrupt the first record of the *last* committed transaction
        victim = first_record_of_last_commit(db.log)
        db.log.corrupt(victim.lsn)
        report = salvage(db.log)
        assert report is not None
        assert report["truncated_lsn"] == victim.lsn
        assert report["corrupt_record"] == "InsertRecord"
        assert report["lost_commits"] == [victim.txn_id]
        assert report["dropped_records"] > 0
        assert report["tail_garbage"] == 0
        # the log was actually cut there
        assert db.log.tail_lsn() == victim.lsn - 1

    def test_uncommitted_tail_is_garbage_not_loss(self):
        db = sales_db()
        commit_sales(db, [1])
        t = db.begin()
        db.insert(t, SALES, sale(2))
        db.log.flush()  # loser's records are durable, COMMIT never written
        inserts = db.log.records_by_type(RecordType.INSERT)
        victim = inserts[-1]
        assert victim.txn_id == t.txn_id
        db.log.corrupt(victim.lsn)
        report = salvage(db.log)
        assert report["lost_commits"] == []
        assert report["tail_garbage"] == report["dropped_records"] > 0

    def test_salvage_with_verify_false_only_reports_undecodable(self):
        db = sales_db()
        commit_sales(db, [1])
        db.log.flush()
        db.log.corrupt(next(iter(db.log.records())).lsn)
        assert salvage(db.log, verify=False) is None


class TestRecoveryIntegration:
    def crash_with_corruption(self, **config):
        db = sales_db(**config)
        commit_sales(db, range(1, 4), product="ant", amount=10)
        db.log.flush()
        victim = first_record_of_last_commit(db.log)
        db.log.corrupt(victim.lsn)
        return db, victim

    def test_recovery_reports_salvage_and_stays_consistent(self):
        db, victim = self.crash_with_corruption()
        db.tracer.enable()
        report = db.simulate_crash_and_recover()
        assert report.salvage is not None
        assert report.salvage["lost_commits"] == [victim.txn_id]
        assert victim.txn_id not in report.winners
        # honest loss: the surviving state is consistent without it
        assert db.check_all_views() == []
        assert db.read_committed(BY_PRODUCT, ("ant",))["n_sales"] == 2
        assert validate_recovery_report(report.as_dict()) == []
        events = db.tracer.events(name="wal_salvage")
        assert len(events) == 1
        assert events[0].fields["lost_commits"] == [victim.txn_id]
        assert db.counters.get("wal.salvage") == 1

    def test_strict_policy_raises_on_committed_loss(self):
        db, victim = self.crash_with_corruption(salvage_policy="strict")
        with pytest.raises(WalCorruptionError) as exc:
            db.simulate_crash_and_recover()
        assert exc.value.salvage["lost_commits"] == [victim.txn_id]
        # the log is already truncated; a second attempt completes and
        # still carries the salvage report (the loss is not forgotten)
        report = db.simulate_crash_and_recover()
        assert report.salvage["lost_commits"] == [victim.txn_id]
        assert db.check_all_views() == []

    def test_strict_policy_ignores_pure_tail_garbage(self):
        db = sales_db(salvage_policy="strict")
        commit_sales(db, [1])
        t = db.begin()
        db.insert(t, SALES, sale(2))
        db.log.flush()
        db.log.corrupt(db.log.records_by_type(RecordType.INSERT)[-1].lsn)
        report = db.simulate_crash_and_recover()  # must not raise
        assert report.salvage["lost_commits"] == []
        assert db.check_all_views() == []

    def test_unknown_salvage_policy_rejected(self):
        with pytest.raises(ReproError):
            EngineConfig(salvage_policy="panic")

    def test_dump_load_with_tampered_line(self, tmp_path):
        """On-disk tampering that stays a decodable record — and even
        re-seals the segment trailer — is caught by the frame's own
        CRC."""
        db = sales_db()
        commit_sales(db, range(1, 4))
        (path,) = map(pathlib.Path, db.dump_wal_segments(tmp_path))
        header, body, trailer = split_segment(path)
        frames = list(frames_of(body))
        payload, crc = frames[5]
        record = LogRecord.decode(payload, db.catalog.layouts())
        record.txn_id = 999  # payload edit without re-stamping the CRC
        frames[5] = (record.encoded(), crc)
        body = b"".join(codec.frame(*f) for f in frames)
        sealed = dict(json.loads(trailer), crc=zlib.crc32(body))
        path.write_bytes(
            header + b"\n" + body + b"\n" + json.dumps(sealed).encode() + b"\n"
        )
        fresh = sales_db()
        report = fresh.load_wal_segments_and_recover(tmp_path)
        assert report.salvage is not None
        assert report.salvage["truncated_lsn"] == 6
        assert fresh.check_all_views() == []

    def test_torn_segment_tail_is_counted(self, tmp_path):
        db = sales_db(wal_segment_bytes=1024)
        commit_sales(db, range(1, 25))
        paths = db.dump_wal_segments(tmp_path)
        assert len(paths) > 2
        last = pathlib.Path(paths[-1])
        header, body, _ = split_segment(last)
        # the write tore before the trailer
        last.write_bytes(header + b"\n" + body + b"\n")
        fresh = sales_db()
        report = fresh.load_wal_segments_and_recover(tmp_path)
        assert report.salvage is not None
        assert report.salvage["undecodable_lines"] == 1
        assert report.salvage["truncated_lsn"] is None
        assert fresh.read_committed(SALES, (1,)) is not None  # prefix kept
        assert fresh.check_all_views() == []


def split_segment(path):
    """``(header line, body, trailer line)`` of a segment file: the body
    is everything between the first newline and the one before the last
    line."""
    raw = path.read_bytes()
    head_end = raw.index(b"\n")
    body_end = raw.rindex(b"\n", 0, len(raw) - 1)
    return raw[:head_end], raw[head_end + 1:body_end], raw[body_end + 1:-1]


def paged_db(**kwargs):
    """Two frames and 256-byte pages: nearly every commit writes a page
    back, so the page store runs right behind the durable log."""
    db = Database(EngineConfig(buffer_pool_frames=2, page_size=256, **kwargs))
    db.execute(
        """
        CREATE TABLE t (id, grp, v, PRIMARY KEY (id));
        CREATE UNIQUE INDEXED VIEW byg AS
            SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY grp;
        """
    )
    return db


class TestSalvageDistrustsPagesPastTheCut:
    """Pages written under records the salvage pass dropped would keep
    alive the very commits its report calls lost; the store is then as
    untrusted as a torn page."""

    def test_pages_written_under_dropped_records_are_not_seeded(self):
        db = paged_db()
        for i in range(40):
            db.execute(f"INSERT INTO t VALUES ({i}, {i % 3}, {i})")
        db.log.corrupt(db.log.flushed_lsn // 2)
        report = db.simulate_crash_and_recover()
        assert report.salvage["truncated_lsn"] == 61
        assert len(report.salvage["lost_commits"]) == 21
        # full ungated replay of the surviving prefix, nothing from pages
        assert report.redo_skipped == 0
        assert report.analyzed_records == 60
        assert [row["id"] for row in db.execute("SELECT * FROM t")] == list(
            range(19)
        )
        assert db.check_all_views() == []
        assert db.check_integrity().clean

    def test_a_cut_above_every_durable_entry_keeps_the_pages(self):
        db = paged_db()
        for i in range(40):
            db.execute(f"INSERT INTO t VALUES ({i}, {i % 3}, {i})")
        db.take_checkpoint()
        txn = db.begin()
        db.insert(txn, "t", {"id": 99, "grp": 0, "v": 1})
        db.log.flush()  # durable, but no page was written under it
        cut = db.log.flushed_lsn
        db.log.corrupt(cut)
        report = db.simulate_crash_and_recover()
        assert report.salvage["truncated_lsn"] == cut
        assert report.pages_loaded > 0 and report.analyzed_records < 10
        assert len(db.execute("SELECT * FROM t")) == 40
        assert db.check_all_views() == []

    def test_no_replayable_log_either_raises(self, tmp_path):
        """A recycled log cannot replay from LSN 1: with the pages
        untrusted too, nothing vouches for any state."""
        db = paged_db(checkpoint_interval=5, wal_segment_bytes=1024)
        for i in range(30):
            db.execute(f"INSERT INTO t VALUES ({i}, {i % 3}, {i})")
        db.dump_wal_segments(tmp_path)
        assert db.restart.recycle_segments(tmp_path)
        db.load_wal_segments_and_recover(tmp_path)  # the log now starts late
        for i in range(30, 40):
            db.execute(f"INSERT INTO t VALUES ({i}, {i % 3}, {i})")
        db.log.corrupt(db.log.flushed_lsn - 30)
        with pytest.raises(WalCorruptionError, match="vouch"):
            db.simulate_crash_and_recover()
        with pytest.raises(WalCorruptionError):  # and it stays refused
            db.simulate_crash_and_recover()


class TestCorruptFaultSite:
    def test_seeded_corruption_detected_end_to_end(self):
        db = sales_db()
        injector = db.install_fault_injector(FaultInjector(seed=7))
        injector.arm("wal.corrupt", after=10, times=1)
        commit_sales(db, range(1, 6))
        db.log.flush()
        assert injector.fired.get("wal.corrupt") == 1
        report = db.simulate_crash_and_recover()
        assert report.salvage is not None
        assert report.salvage["dropped_records"] > 0
        assert db.check_all_views() == []

    def test_match_targets_record_type(self):
        db = sales_db()
        injector = db.install_fault_injector(FaultInjector())
        injector.arm("wal.corrupt", match="CommitRecord", times=1)
        commit_sales(db, range(1, 4))
        db.log.flush()
        report = db.simulate_crash_and_recover()
        assert report.salvage["corrupt_record"] == "CommitRecord"


class TestNegativeControl:
    """With checksums off, corruption *does* flow through silently —
    proving the salvage oracle is load-bearing — and the independent
    integrity checker still catches the damage."""

    def test_checksums_off_means_silent_corruption(self):
        db = sales_db(wal_checksums=False)
        commit_sales(db, range(1, 4))
        db.log.flush()
        # flip a committed escrow delta; without checksums nothing can
        # notice at recovery time
        deltas = db.log.records_by_type(RecordType.ESCROW_DELTA)
        db.log.corrupt(deltas[0].lsn)
        report = db.simulate_crash_and_recover()
        assert report.salvage is None  # recovery had no idea
        # ...but the online checker recomputes from base tables and sees it
        integrity = db.check_integrity()
        assert not integrity.clean
        assert BY_PRODUCT in integrity.damaged_views()

    def test_checksums_on_catches_the_same_corruption(self):
        db = sales_db()
        commit_sales(db, range(1, 4))
        db.log.flush()
        deltas = db.log.records_by_type(RecordType.ESCROW_DELTA)
        db.log.corrupt(deltas[0].lsn)
        report = db.simulate_crash_and_recover()
        assert report.salvage is not None  # loudly reported
        assert db.check_integrity().clean  # surviving prefix consistent
