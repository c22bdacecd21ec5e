"""The one packed codec (``repro.wal.codec``, ``docs/STORAGE.md`` §1/§3).

* values keep their **type** through a checkpoint, a crash and a
  segment restore (the JSON codecs stringified ``Decimal`` / ``date``
  and turned tuples into lists);
* a value with no layout is refused, typed, **before** anything is
  mutated or logged;
* every record type and every page entry round-trips byte-for-byte;
  a damaged frame or page never yields a silently different record.
"""

import datetime
import decimal
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import Row, StorageError, UnsupportedValueError, WalError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.storage.pages import SlottedPage
from repro.views import AggregateView
from repro.wal import codec
from repro.wal.records import (
    AbortRecord,
    CheckpointRecord,
    CleanupRecord,
    CommitRecord,
    CompensationRecord,
    CounterImageRecord,
    DecisionRecord,
    EndRecord,
    EscrowDeltaRecord,
    GhostRecord,
    InsertRecord,
    LogRecord,
    PrepareRecord,
    RecordType,
    ReviveRecord,
    UpdateRecord,
)

UTC_PLUS = datetime.timezone(datetime.timedelta(hours=5, minutes=30))

#: one row per supported type that JSON lost or bent
TYPED_ROWS = [
    {"id": 1, "grp": "a", "amt": decimal.Decimal("1.10"),
     "v": datetime.date(2026, 1, 2)},
    {"id": 2, "grp": "a", "amt": decimal.Decimal("2.205"),
     "v": datetime.datetime(2026, 1, 2, 3, 4, 5, 678)},
    {"id": 3, "grp": "b", "amt": decimal.Decimal("-0.5"),
     "v": datetime.datetime(2026, 1, 2, 3, 4, tzinfo=UTC_PLUS)},
    {"id": 4, "grp": "b", "amt": decimal.Decimal("7"), "v": b"\x00\xff\n"},
    {"id": 5, "grp": "c", "amt": decimal.Decimal("0.00"),
     "v": (1, (2, "x"), None)},
    {"id": 6, "grp": "c", "amt": decimal.Decimal("1E+3"), "v": -0.0},
    {"id": 7, "grp": "c", "amt": decimal.Decimal("3"), "v": 2**70},
    {"id": 8, "grp": "c", "amt": decimal.Decimal("4"), "v": "naïve ☃ 数"},
    {"id": 9, "grp": "c", "amt": decimal.Decimal("5"), "v": True},
]


def typed_db():
    db = Database(EngineConfig(buffer_pool_frames=4, page_size=512))
    db.create_table("t", ("id", "grp", "amt", "v"), ("id",))
    db.create_view(AggregateView(
        "by_grp", "t", group_by=("grp",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("total", "amt")],
    ))
    return db


def same(a, b):
    """Equal values of equal type, all the way down (``-0.0`` and
    ``Decimal`` exponents included: ``repr`` tells them apart)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, (dict, Row)):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, LogRecord):
        return all(
            same(getattr(a, attr), getattr(b, attr))
            for attr in ("lsn", "txn_id", "prev_lsn")
            + tuple(attr for attr, _ in a.fields)
        )
    if isinstance(a, datetime.datetime):
        return a == b and a.utcoffset() == b.utcoffset()
    return a == b and repr(a) == repr(b)


def assert_typed_contents(db):
    for values in TYPED_ROWS:
        got = db.read_committed("t", (values["id"],))
        assert same(got, Row(values)), (got, values)
    totals = {}
    for values in TYPED_ROWS:
        totals[values["grp"]] = totals.get(values["grp"], 0) + values["amt"]
    for grp, total in totals.items():
        row = db.read_committed("by_grp", (grp,))
        assert type(row["total"]) is decimal.Decimal and row["total"] == total
    assert db.check_all_views() == []
    assert db.check_integrity().clean


def test_values_keep_their_type_through_checkpoint_crash_and_segment_restore(
    tmp_path,
):
    db = typed_db()
    for values in TYPED_ROWS:  # several inserts land in one SUM group
        with db.session() as s:
            s.insert("t", values)
    assert_typed_contents(db)
    # (i) the page store: checkpoint, crash, seed from durable pages
    db.take_checkpoint()
    report = db.simulate_crash_and_recover()
    assert report.pages_loaded > 0
    assert_typed_contents(db)
    # (ii) the segment chain into a schema-only engine: full replay
    db.dump_wal_segments(tmp_path)
    fresh = typed_db()
    fresh.load_wal_segments_and_recover(tmp_path)
    assert_typed_contents(fresh)


@pytest.mark.parametrize("bad", [{1, 2}, [1, 2], object(), (1, [2]), "\ud800"])
def test_a_value_with_no_layout_is_refused_before_anything_changes(bad, tmp_path):
    db = typed_db()
    txn = db.begin()
    db.insert(txn, "t", dict(TYPED_ROWS[0]))
    log_len, before = len(db.log), list(db.index("t").rows())
    with pytest.raises(UnsupportedValueError):
        db.insert(txn, "t", {"id": 50, "grp": "a", "amt": 1, "v": bad})
    with pytest.raises(UnsupportedValueError):
        db.update(txn, "t", (1,), {"v": bad})
    assert len(db.log) == log_len and list(db.index("t").rows()) == before
    assert db.locks.held_mode(txn.txn_id, ("key", "t", (50,))) is None
    # the transaction is still usable, and what it wrote is dumpable
    db.insert(txn, "t", dict(TYPED_ROWS[1]))
    db.commit(txn)
    assert db.read_committed("by_grp", ("a",))["n"] == 2
    assert db.dump_wal_segments(tmp_path)  # raises nothing, builtin or not


def test_the_log_refuses_what_the_codec_cannot_pack_and_stays_unchanged():
    db = typed_db()
    record = InsertRecord(1, "t", (1,), Row(id=1, v=[1]))
    with pytest.raises(UnsupportedValueError):
        db.log.append(record)
    assert len(db.log) == 0 and db.log.tail_lsn() == 0
    assert record.lsn is None and db.log.bytes_estimate == 0


# ---------------------------------------------------------------------
# property tests: every record type, every entry
# ---------------------------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**80, 2**80),
    st.integers(-200, 200), st.floats(allow_nan=False), st.text(max_size=12),
    st.binary(max_size=12),
    st.decimals(allow_nan=False, places=3, min_value=-10**6, max_value=10**6),
    st.decimals(allow_nan=False),
    st.dates(), st.datetimes(),
    st.datetimes(timezones=st.just(UTC_PLUS)),
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)
names = st.text(min_size=1, max_size=8)
keys = st.lists(values, min_size=1, max_size=3).map(tuple)
rows = st.dictionaries(names, values, max_size=5).map(Row)
optional_rows = st.one_of(st.none(), rows)
lsns = st.integers(1, 2**32 - 1)
txn_ids = st.integers(0, 2**32 - 1)
deltas = st.dictionaries(
    names, st.one_of(st.integers(-10**6, 10**6), st.decimals(
        allow_nan=False, allow_infinity=False, places=2,
        min_value=-1000, max_value=1000)), max_size=3,
)

undoable = st.one_of(
    st.builds(InsertRecord, txn_ids, names, keys, rows),
    st.builds(UpdateRecord, txn_ids, names, keys, optional_rows, rows),
    st.builds(GhostRecord, txn_ids, names, keys, rows),
    st.builds(ReviveRecord, txn_ids, names, keys, rows, optional_rows),
    st.builds(CleanupRecord, txn_ids, names, keys, optional_rows),
    st.builds(EscrowDeltaRecord, txn_ids, names, keys, deltas),
    st.builds(CounterImageRecord, txn_ids, names, keys, rows, rows),
)


@st.composite
def stamped(draw, records):
    record = draw(records)
    record.lsn = draw(lsns)
    if record.txn_id is not None:
        record.prev_lsn = draw(st.one_of(st.none(), lsns))
    return record


@st.composite
def clrs(draw):
    action = draw(stamped(undoable))
    return CompensationRecord(
        action.txn_id, action.lsn, draw(st.one_of(st.none(), lsns)), action
    )


int_maps = st.dictionaries(txn_ids, st.one_of(st.none(), lsns), max_size=4)
any_record = stamped(st.one_of(
    undoable,
    clrs(),
    st.builds(CommitRecord, txn_ids, st.integers(0, 2**40)),
    st.builds(AbortRecord, txn_ids),
    st.builds(EndRecord, txn_ids),
    st.builds(CheckpointRecord, int_maps, int_maps),
    st.builds(PrepareRecord, txn_ids, st.text(max_size=10)),
    st.builds(DecisionRecord, st.text(max_size=10),
              st.sampled_from(["commit", "abort"]),
              st.lists(st.integers(0, 64), max_size=4)),
))


def test_the_record_strategy_reaches_every_record_type():
    seen = set()

    @settings(max_examples=400, deadline=None, database=None)
    @given(any_record)
    def collect(record):
        seen.add(record.type)

    collect()
    assert seen == set(RecordType)


@settings(max_examples=300, deadline=None)
@given(any_record)
@example(CommitRecord(0, 0))  # transaction 0 and an absent LSN are
@example(CheckpointRecord({}, {}))  # not the same header
def test_records_round_trip_field_by_field_and_byte_for_byte(record):
    packed = record.encoded()
    decoded = LogRecord.decode(packed)
    assert same(decoded, record)
    assert decoded.encoded() == packed
    assert decoded.stored_crc is None and decoded.checksum() == zlib.crc32(packed)


def parse_frames(body):
    """What a segment reader makes of a body: the records, each carrying
    its frame's stamp for the salvage scan to verify."""
    records = []
    for payload, crc in codec.iter_frames(body):
        record = LogRecord.decode(payload)
        record.stored_crc = crc
        records.append(record)
    return records


@settings(max_examples=60, deadline=None)
@given(any_record, st.data())
def test_a_damaged_frame_is_an_error_or_fails_its_stamp_never_another_record(
    record, data
):
    """Any truncation raises ``WalError``. Any single-byte flip either
    raises ``WalError`` (the body no longer parses) or yields a record
    whose stamp no longer verifies — which is what the salvage scan
    cuts at, and why the loader hands it the stamp instead of judging
    it. No other exception, and never a body of records that all
    verify."""
    packed = record.encoded()
    framed = codec.frame(packed, zlib.crc32(packed))
    (intact,) = parse_frames(framed)
    assert intact.verify_checksum()
    for cut in range(1, len(framed)):
        with pytest.raises(WalError):
            parse_frames(framed[:cut])
    at = data.draw(st.integers(0, len(framed) - 1))
    damaged = bytearray(framed)
    damaged[at] ^= data.draw(st.integers(1, 255))
    try:
        survivors = parse_frames(bytes(damaged))
    except WalError:
        return
    assert not all(r.verify_checksum() for r in survivors)


entries = st.tuples(
    names, keys, st.one_of(st.none(), rows.map(dict)), st.booleans(),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None)
@given(entries)
def test_page_entries_round_trip_and_their_prefixes_do_not_decode(entry):
    packed = codec.pack_entry(*entry)
    decoded = codec.unpack_entry(packed)
    assert same(decoded, entry)
    assert codec.pack_entry(*decoded) == packed
    for cut in range(len(packed)):
        with pytest.raises(StorageError):
            codec.unpack_entry(packed[:cut])
    with pytest.raises(StorageError):
        codec.unpack_entry(packed + b"\x00")
    for reserved in range(1, 8):  # every flag bit but the ghost bit
        flagged = bytes([packed[0] | 1 << reserved]) + packed[1:]
        with pytest.raises(StorageError):
            codec.unpack_entry(flagged)


@settings(max_examples=60, deadline=None)
@given(st.lists(entries, min_size=1, max_size=6), st.data())
def test_a_flipped_byte_anywhere_in_a_page_image_is_a_storage_error(
    entry_list, data
):
    payloads = [codec.pack_entry(*entry) for entry in entry_list]
    size = max(4096, sum(len(p) + 4 for p in payloads) + 20)
    image = bytearray(SlottedPage(3, payloads, page_size=size).to_bytes())
    image[data.draw(st.integers(0, len(image) - 1))] ^= data.draw(
        st.integers(1, 255)
    )
    with pytest.raises(StorageError):
        SlottedPage.from_bytes(bytes(image))
