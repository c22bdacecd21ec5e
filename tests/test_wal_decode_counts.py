"""How often recovery decodes a stored record.

The log keeps bytes, not record objects (``repro.wal.log``), so every
record a reader needs is decoded from them — and decoding costs more than
reading a header or a CRC. These tests pin the budget: loading a segment
chain decodes nothing, a checkpointed recovery decodes nothing before its
redo window, and a full replay decodes each durable record at most once,
plus the reads of undo's backchain walk.
"""

import collections

import pytest

from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView
from repro.wal import LogRecord
from repro.wal.segments import load_segments


@pytest.fixture
def decoded(monkeypatch):
    """The LSN of every record ``LogRecord.decode`` returns, in order."""
    lsns = []
    decode = LogRecord.decode

    def counting(*args, **kwargs):
        record = decode(*args, **kwargs)
        lsns.append(record.lsn)
        return record

    monkeypatch.setattr(LogRecord, "decode", staticmethod(counting))
    return lsns


def sales_db(**config):
    db = Database(EngineConfig(**config))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "by_product", "sales", group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"), AggregateSpec.sum_of("total", "amount"),
        ],
    ))
    return db


def sell(db, ids):
    for i in ids:
        with db.session() as s:
            s.insert("sales", {"id": i, "product": f"p{i % 4}", "amount": i})


def open_loser(db, sale_id):
    """A transaction left open with a durable record: a later commit's
    flush hardens it, so recovery must undo it."""
    txn = db.begin()
    db.insert(txn, "sales", {"id": sale_id, "product": "p0", "amount": 1})
    return txn


def test_loading_a_segment_chain_decodes_nothing(decoded, tmp_path):
    db = sales_db(wal_segment_bytes=1024)
    sell(db, range(1, 60))
    assert len(db.dump_wal_segments(tmp_path)) > 1
    decoded.clear()
    loaded = load_segments(tmp_path)
    assert len(loaded) == len(db.log) and loaded.undecodable_tail == 0
    assert decoded == []


def test_a_checkpointed_recovery_decodes_nothing_before_its_redo_window(
    decoded,
):
    db = sales_db()
    sell(db, range(1, 40))
    checkpoint = db.take_checkpoint()
    sell(db, range(40, 50))
    loser = open_loser(db, 100)
    sell(db, range(50, 52))
    redo_from = min([checkpoint.lsn + 1, *checkpoint.dirty_pages.values()])
    assert redo_from > 1
    decoded.clear()
    report = db.simulate_crash_and_recover()
    assert report.pages_loaded > 0 and report.losers == {loser.txn_id}
    early = [lsn for lsn in decoded if lsn < redo_from]
    assert early in ([], [checkpoint.lsn])  # the checkpoint itself, once


def test_a_full_replay_decodes_each_record_once_plus_undos_reads(decoded):
    db = sales_db()
    sell(db, range(1, 20))
    loser = open_loser(db, 100)
    sell(db, range(20, 25))
    loser_lsns = set()
    lsn = db.log.last_lsn_of(loser.txn_id)
    while lsn is not None:
        loser_lsns.add(lsn)
        lsn = db.log.header_at(lsn)[3]
    tail = db.log.tail_lsn()
    decoded.clear()
    report = db.simulate_crash_and_recover()
    assert report.analyzed_records == tail and report.pages_loaded == 0
    counts = collections.Counter(lsn for lsn in decoded if lsn <= tail)
    assert counts  # redo read the records it replayed
    for lsn, times in counts.items():
        assert times <= 1 + (lsn in loser_lsns), (lsn, times)
