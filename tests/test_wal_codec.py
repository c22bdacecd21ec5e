"""The one packed codec (``repro.wal.codec``, ``docs/STORAGE.md`` §1/§3).

* values keep their **type** through a checkpoint, a crash and a
  segment restore (the JSON codecs stringified ``Decimal`` / ``date``
  and turned tuples into lists);
* a value with no layout is refused, typed, **before** anything is
  mutated or logged;
* every record type and every page entry round-trips byte-for-byte
  against its layout table; a damaged frame or page, an unknown layout
  id or a wrong arity never yields a silently different record;
* a segment restore binds layouts by name and refuses a catalog that
  disagrees before anything is redone.
"""

import datetime
import decimal
import json
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog import RowLayout
from repro.common import Row, StorageError, UnsupportedValueError, WalError
from repro.obs import VALUE_TAGS
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.storage.pages import SlottedPage
from repro.views import AggregateView, JoinAggregateView, JoinView
from repro.wal import codec
from repro.wal.segments import dump_segments, recycle_segments
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
    record = InsertRecord(
        1, db.index("t").layout, (1,), Row(id=1, grp="a", amt=1, v=[1])
    )
    with pytest.raises(UnsupportedValueError):
        db.log.append(record)
    assert len(db.log) == 0 and db.log.tail_lsn() == 0
    assert record.lsn is None and db.log.bytes_estimate == 0


# ---------------------------------------------------------------------
# property tests: every value tag, every record type, every entry, each
# packed against a generated layout table
# ---------------------------------------------------------------------

#: one strategy per value tag, each drawing only values packed with it;
#: ``values`` draws the tag first, so every tag gets an equal share
VALUES = {
    "none": st.none(),
    "false": st.just(False),
    "true": st.just(True),
    "int8": st.integers(-2**7, 2**7 - 1),
    "int16": st.one_of(
        st.integers(-2**15, -2**7 - 1), st.integers(2**7, 2**15 - 1)
    ),
    "int32": st.one_of(
        st.integers(-2**31, -2**15 - 1), st.integers(2**15, 2**31 - 1)
    ),
    "int64": st.one_of(
        st.integers(-2**63, -2**31 - 1), st.integers(2**31, 2**63 - 1)
    ),
    "bigint": st.one_of(
        st.integers(-2**80, -2**63 - 1), st.integers(2**63, 2**80)
    ),
    "float": st.floats(allow_nan=False),
    "str": st.text(max_size=12),
    "bytes": st.binary(max_size=12),
    "tuple": st.lists(st.deferred(lambda: values), max_size=3).map(tuple),
    "decimal": st.one_of(
        st.decimals(allow_nan=False, places=3, min_value=-10**6,
                    max_value=10**6),
        st.decimals(allow_nan=False),
    ),
    "date": st.dates(),
    "datetime": st.datetimes(),
    "datetime_tz": st.datetimes(timezones=st.just(UTC_PLUS)),
}
values = st.sampled_from(VALUE_TAGS).flatmap(VALUES.__getitem__)
names = st.text(min_size=1, max_size=8)
keys = st.lists(values, min_size=1, max_size=3).map(tuple)
lsns = st.integers(1, 2**32 - 1)
txn_ids = st.integers(0, 2**32 - 1)
amounts = st.one_of(st.integers(-10**6, 10**6), st.decimals(
    allow_nan=False, allow_infinity=False, places=2,
    min_value=-1000, max_value=1000))


def test_the_value_strategy_reaches_every_value_tag():
    """The table behind ``values`` is total, and each entry draws values
    packed with its own tag."""
    assert set(VALUES) == set(VALUE_TAGS)
    for tag, strategy in VALUES.items():

        @settings(max_examples=5, deadline=None, database=None)
        @given(strategy)
        def packs_its_tag(value):
            parts = []
            codec.pack_value(value, parts.append)
            assert VALUE_TAGS[parts[0][0]] == tag

        packs_its_tag()


@st.composite
def layout_tables(draw):
    """A catalog's layout table ``{id: RowLayout}``: one to four layouts
    with distinct u16 ids, each with one to five distinct columns and,
    as escrow counters, some of them in column order."""
    table = {}
    ids = st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=4, unique=True)
    for layout_id in draw(ids):
        columns = draw(st.lists(names, min_size=1, max_size=5, unique=True))
        counters = [column for column in columns if draw(st.booleans())]
        table[layout_id] = RowLayout(layout_id, draw(names), columns, counters)
    return table


def over(columns, strategy):
    """Dicts of one ``strategy`` value per column, in column order."""
    return st.tuples(*[strategy] * len(columns)).map(
        lambda drawn: dict(zip(columns, drawn))
    )


def rows(layout):
    return over(layout.columns, values).map(Row)


def optional_rows(layout):
    return st.one_of(st.none(), rows(layout))


def deltas(layout):
    return over(layout.counters, amounts)


def row_change(cls, *bodies):
    """``table -> strategy`` of ``cls`` records on a layout of the table,
    each body field drawn by ``bodies`` (``layout -> strategy``)."""
    def build(table):
        return st.sampled_from(list(table.values())).flatmap(
            lambda layout: st.builds(
                cls, txn_ids, st.just(layout), keys,
                *(body(layout) for body in bodies),
            )
        )
    return build


#: the undoable record types' strategies (a CLR wraps one of them)
UNDOABLE = {
    RecordType.INSERT: row_change(InsertRecord, rows),
    RecordType.UPDATE: row_change(UpdateRecord, optional_rows, rows),
    RecordType.GHOST: row_change(GhostRecord, rows),
    RecordType.REVIVE: row_change(ReviveRecord, rows, optional_rows),
    RecordType.CLEANUP: row_change(CleanupRecord, optional_rows),
    RecordType.ESCROW_DELTA: row_change(EscrowDeltaRecord, deltas),
    RecordType.COUNTER_IMAGE: row_change(CounterImageRecord, rows, rows),
}


def undoable(table):
    return st.sampled_from(list(UNDOABLE)).flatmap(
        lambda record_type: UNDOABLE[record_type](table)
    )


@st.composite
def stamped(draw, records):
    record = draw(records)
    record.lsn = draw(lsns)
    if record.txn_id is not None:
        record.prev_lsn = draw(st.one_of(st.none(), lsns))
    return record


@st.composite
def clrs(draw, table):
    action = draw(stamped(undoable(table)))
    return CompensationRecord(
        action.txn_id, action.lsn, draw(st.one_of(st.none(), lsns)), action
    )


def plain(strategy):
    """A record type that names no layout: the table is not consulted."""
    return lambda table: strategy


int_maps = st.dictionaries(txn_ids, st.one_of(st.none(), lsns), max_size=4)
#: one strategy per record type (``table -> strategy``); ``any_record``
#: draws the type first, so every type gets an equal share by construction
RECORDS = {
    **UNDOABLE,
    RecordType.CLR: clrs,
    RecordType.COMMIT: plain(
        st.builds(CommitRecord, txn_ids, st.integers(0, 2**40))
    ),
    RecordType.ABORT: plain(st.builds(AbortRecord, txn_ids)),
    RecordType.END: plain(st.builds(EndRecord, txn_ids)),
    RecordType.CHECKPOINT: plain(
        st.builds(CheckpointRecord, int_maps, int_maps)
    ),
    RecordType.PREPARE: plain(
        st.builds(PrepareRecord, txn_ids, st.text(max_size=10))
    ),
    RecordType.DECISION: plain(st.builds(
        DecisionRecord, st.text(max_size=10),
        st.sampled_from(["commit", "abort"]),
        st.lists(st.integers(0, 64), max_size=4),
    )),
}


@st.composite
def any_record(draw):
    """``(record, table)``: a stamped record of any type and the layout
    table it is packed against."""
    table = draw(layout_tables())
    record_type = draw(st.sampled_from(RecordType))
    return draw(stamped(RECORDS[record_type](table))), table


def test_the_record_strategy_reaches_every_record_type():
    """The table behind ``any_record`` is total, and each entry draws
    records of its own type."""
    assert set(RECORDS) == set(RecordType)
    for record_type, records in RECORDS.items():

        @settings(max_examples=5, deadline=None, database=None)
        @given(layout_tables().flatmap(records))
        def draws_its_type(record):
            assert record.type is record_type

        draws_its_type()


@settings(max_examples=300, deadline=None)
@given(any_record())
@example((CommitRecord(0, 0), {}))  # transaction 0 and an absent LSN are
@example((CheckpointRecord({}, {}), {}))  # not the same header
def test_records_round_trip_field_by_field_and_byte_for_byte(drawn):
    record, table = drawn
    packed = record.encoded()
    decoded = LogRecord.decode(packed, table)
    assert same(decoded, record)
    assert decoded.encoded() == packed
    # as the log decodes it: in place, inside a larger buffer
    stored = bytearray(b"\xff" + packed + b"\xff")
    assert same(LogRecord.decode(stored, table, 1, 1 + len(packed)), record)


def layout_of(record):
    """The layout a record's rows are packed against (a CLR's action's)."""
    return getattr(getattr(record, "action", record), "layout", None)


@settings(max_examples=100, deadline=None)
@given(any_record())
def test_a_record_never_decodes_against_another_layout(drawn):
    """Decoded against a table without its layout id, or one whose
    layout under that id has another arity, a record is a ``WalError``
    — never its values read into other columns."""
    record, table = drawn
    layout = layout_of(record)
    if layout is None:
        return
    packed = record.encoded()
    with pytest.raises(WalError):
        LogRecord.decode(packed, {
            i: other for i, other in table.items() if i != layout.id
        })
    changed = getattr(record, "action", record)
    if changed.type is RecordType.ESCROW_DELTA:
        other = RowLayout(
            layout.id, layout.name, layout.columns, layout.counters + ("+",)
        )
    else:
        other = RowLayout(layout.id, layout.name, layout.columns + ("+",))
        if all(getattr(changed, attr) is None for attr, _ in changed.fields[2:]):
            return  # an absent row has no arity to disagree with
    with pytest.raises(WalError):
        LogRecord.decode(packed, {**table, layout.id: other})


def frames_of(body):
    """``(payload, crc)`` for each frame of a segment body."""
    frames = []
    for at in codec.frame_offsets(body):
        length, crc = codec.FRAME_HEADER.unpack_from(body, at)
        start = at + codec.FRAME_HEADER.size
        frames.append((body[start:start + length], crc))
    return frames


def parse_frames(body, table):
    """What the log makes of a body: for each frame, its record and
    whether the payload passes the frame's CRC — the salvage scan's
    test."""
    return [
        (LogRecord.decode(payload, table), zlib.crc32(payload) == crc)
        for payload, crc in frames_of(body)
    ]


@settings(max_examples=60, deadline=None)
@given(any_record(), st.data())
def test_a_damaged_frame_is_an_error_or_fails_its_stamp_never_another_record(
    drawn, data
):
    """Any truncation raises ``WalError``. Any single-byte flip either
    raises ``WalError`` (the body no longer parses: an unknown layout id
    or arity among the reasons) or leaves a frame whose payload fails
    its CRC — which is what the salvage scan cuts at, and why the loader
    keeps the frame as stored instead of judging it. No other exception,
    and never a body of frames that all pass."""
    record, table = drawn
    packed = record.encoded()
    framed = codec.frame(packed, zlib.crc32(packed))
    ((_, intact),) = parse_frames(framed, table)
    assert intact
    for cut in range(1, len(framed)):
        with pytest.raises(WalError):
            parse_frames(framed[:cut], table)
    at = data.draw(st.integers(0, len(framed) - 1))
    damaged = bytearray(framed)
    damaged[at] ^= data.draw(st.integers(1, 255))
    try:
        survivors = parse_frames(bytes(damaged), table)
    except WalError:
        return
    assert not all(passes for _, passes in survivors)


@pytest.mark.parametrize("text", [b"\x1c.000", b" 0.000", b"0_0.5", b"+1", b"1e3"])
def test_a_decimal_reads_back_only_from_the_text_it_was_written_as(text):
    """``Decimal`` also parses these spellings; had the reader taken
    them, a flipped byte would decode to the value it replaced, re-encode
    to the original bytes and pass its stamp."""
    parts = []
    codec.pack_value(decimal.Decimal(str(text, "ascii")), parts.append)
    tag = b"".join(parts)[:1]
    with pytest.raises(WalError):
        codec.unpack_value(tag + bytes((len(text),)) + text, 0)


@st.composite
def entries(draw, table):
    """``(layout, key, row, is_ghost, lsn)`` on a layout of ``table``."""
    layout = draw(st.sampled_from(list(table.values())))
    row = draw(st.one_of(st.none(), rows(layout).map(dict)))
    return (layout, draw(keys), row, draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(layout_tables().flatmap(
    lambda table: st.tuples(entries(table), st.just(table))
))
def test_page_entries_round_trip_and_their_prefixes_do_not_decode(drawn):
    entry, table = drawn
    packed = codec.pack_entry(*entry)
    decoded = codec.unpack_entry(packed, table)
    assert same(decoded[1:], entry[1:]) and decoded[0] is entry[0]
    assert codec.pack_entry(*decoded) == packed
    for cut in range(len(packed)):
        with pytest.raises(StorageError):
            codec.unpack_entry(packed[:cut], table)
    with pytest.raises(StorageError):
        codec.unpack_entry(packed + b"\x00", table)
    for reserved in range(1, 8):  # every flag bit but the ghost bit
        flagged = bytes([packed[0] | 1 << reserved]) + packed[1:]
        with pytest.raises(StorageError):
            codec.unpack_entry(flagged, table)
    # an id the table lacks, or a layout of another arity under it
    layout = entry[0]
    with pytest.raises(StorageError):
        codec.unpack_entry(packed, {
            i: other for i, other in table.items() if i != layout.id
        })
    if entry[2] is not None:
        wider = RowLayout(layout.id, layout.name, layout.columns + ("+",))
        with pytest.raises(StorageError):
            codec.unpack_entry(packed, {**table, layout.id: wider})


@settings(max_examples=60, deadline=None)
@given(layout_tables().flatmap(
    lambda table: st.lists(entries(table), min_size=1, max_size=6)
), st.data())
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


# ---------------------------------------------------------------------
# segment restores bind layouts by name
# ---------------------------------------------------------------------


def sales_db(columns=("id", "product", "customer", "amount"),
             aggregates=(("count", "n_sales"), ("sum_of", "revenue", "amount"))):
    db = Database(EngineConfig(buffer_pool_frames=4, page_size=512))
    db.create_table("sales", columns, ("id",))
    db.create_view(AggregateView(
        "by_product", "sales", group_by=("product",),
        aggregates=[getattr(AggregateSpec, f)(*args) for f, *args in aggregates],
    ))
    return db


def sell(db, ids):
    for i in ids:
        with db.session() as s:
            s.insert("sales", {
                "id": i, "product": f"p{i % 3}", "customer": i % 2,
                "amount": i,
            })


@pytest.mark.parametrize("target", [
    dict(columns=("id", "product", "client", "amount")),  # renamed
    dict(columns=("id", "customer", "product", "amount")),  # reordered
    dict(columns=("id", "product", "customer", "amount", "note")),  # extra
    dict(aggregates=(("count", "n_sales"), ("sum_of", "total", "amount"))),
    dict(aggregates=(("count", "n_sales"),)),  # other counter columns
], ids=["renamed", "reordered", "extra", "other_counter", "fewer_counters"])
def test_a_restore_into_a_disagreeing_catalog_is_refused_before_any_redo(
    target, tmp_path
):
    source = sales_db()
    sell(source, range(1, 12))
    source.dump_wal_segments(tmp_path)
    restored = sales_db(**target)
    with pytest.raises(StorageError, match="cannot restore this WAL"):
        restored.load_wal_segments_and_recover(tmp_path)
    # nothing was redone, adopted or renumbered
    assert len(restored.log) == 0
    assert list(restored.index("sales").rows()) == []
    assert [layout.id for layout in restored.catalog.layouts().values()] == [
        1, 2,
    ]


def test_a_flipped_byte_in_a_segment_header_layout_table_is_a_storage_error(
    tmp_path,
):
    source = sales_db()
    sell(source, range(1, 6))
    (path,) = source.dump_wal_segments(tmp_path)
    raw = bytearray(open(path, "rb").read())
    at = raw.index(b'"customer"') + 3  # inside a column name of the table
    raw[at] ^= 0x01
    open(path, "wb").write(bytes(raw))
    with pytest.raises(StorageError, match="layout table"):
        sales_db().load_wal_segments_and_recover(tmp_path)


def chain_of_three(tmp_path):
    """``sales_db`` traffic dumped as a chain of at least three
    segments; returns the engine and the segment paths."""
    db = sales_db()
    sell(db, range(1, 16))
    paths = dump_segments(
        db.log, tmp_path, segment_bytes=256, layouts=db.indexes.layouts()
    )
    assert len(paths) >= 3
    return db, paths


def rewrite_header(path, change):
    raw = open(path, "rb").read()
    head_end = raw.index(b"\n")
    header = json.loads(raw[:head_end])
    change(header)
    open(path, "wb").write(json.dumps(header).encode("ascii") + raw[head_end:])


def flip_a_table_byte(header):
    header["layouts"][0][1] = "salez"  # the CRC no longer matches


def rename_a_column(header):
    header["layouts"][0][3][1] = "item"
    header["layouts_crc"] = zlib.crc32(
        json.dumps(header["layouts"]).encode("ascii")
    )


@pytest.mark.parametrize("change", [flip_a_table_byte, rename_a_column],
                         ids=["bad_crc", "other_table"])
def test_a_later_segment_whose_layout_table_is_bad_or_differs_is_a_break(
    change, tmp_path
):
    """The chain decodes against its head's table; a later segment whose
    own table fails its CRC or names other definitions cuts the chain
    there, and the loss lands in the salvage report."""
    db, paths = chain_of_three(tmp_path)
    rewrite_header(paths[-1], change)
    restored = sales_db()
    report = restored.load_wal_segments_and_recover(tmp_path)
    assert report.salvage is not None
    assert report.salvage["undecodable_lines"] > 0
    assert 0 < len(restored.log) < len(db.log)
    assert restored.check_all_views() == []


def test_recycling_stops_at_a_segment_whose_layout_table_is_bad(tmp_path):
    db, paths = chain_of_three(tmp_path)
    rewrite_header(paths[1], flip_a_table_byte)
    removed = recycle_segments(tmp_path, keep_from_lsn=db.log.tail_lsn() + 1)
    assert removed == paths[:1]


def test_a_page_entry_of_an_unknown_layout_id_is_a_storage_error():
    db = sales_db()
    sell(db, range(1, 6))
    layout = db.index("sales").layout
    packed = codec.pack_entry(layout, (1,), None, True, 7)
    unknown = RowLayout(999, "sales", layout.columns)
    assert codec.unpack_entry(packed, db.catalog.layouts())[0] is layout
    with pytest.raises(StorageError, match="999"):
        codec.unpack_entry(codec.pack_entry(unknown, (1,), None, True, 7),
                           db.catalog.layouts())


def view_rows(db):
    return {
        key: dict(record.current_row)
        for key, record in db.index("by_product").scan()
    }


def by_customer(db):
    return AggregateView(
        "by_product", "sales", group_by=("customer",),
        aggregates=[AggregateSpec.count("n_sales")],
    )


def test_a_view_re_created_under_another_definition_takes_no_old_record(
    tmp_path,
):
    """Drop ``by_product`` and create a view of the same name grouped by
    customer: it gets a fresh layout id, and neither crash recovery nor
    a segment restore applies a record of the old definition to it. The
    old definition, re-created, gets a fresh id too."""
    db = sales_db()
    sell(db, range(1, 8))
    old = db.index("by_product").layout
    db.indexes.drop_view(db.catalog.view("by_product"))
    db.create_view(by_customer(db))
    sell(db, range(8, 12))
    new = db.index("by_product").layout
    assert new.id not in (1, old.id) and new.columns == (
        "customer", "n_sales",
    )
    expected = view_rows(db)
    assert set(expected) == {(0,), (1,)}

    db.simulate_crash_and_recover()  # replays the old view's records too
    assert view_rows(db) == expected and db.check_all_views() == []

    db.dump_wal_segments(tmp_path)
    header = json.loads(open(tmp_path / "wal.00001.seg", "rb").readline())
    assert [entry[:3] for entry in header["layouts"]] == [
        [1, "sales", True], [old.id, "by_product", False],
        [new.id, "by_product", True],
    ]
    restored = sales_db()
    restored.indexes.drop_view(restored.catalog.view("by_product"))
    restored.create_view(by_customer(restored))
    restored.load_wal_segments_and_recover(tmp_path)
    assert view_rows(restored) == expected
    assert restored.check_all_views() == []
    assert restored.index("by_product").layout.id == new.id

    db.indexes.drop_view(db.catalog.view("by_product"))
    db.create_view(sales_db().catalog.view("by_product"))
    again = db.index("by_product").layout
    assert again.definition() == old.definition()
    assert again.id not in (old.id, new.id)


def test_a_view_dropped_and_re_created_alike_takes_no_record_of_its_old_incarnation():
    """An index incarnation is its layout id: ``by_product`` dropped,
    two of its groups' sales deleted meanwhile, then re-created under
    the very same definition is a new incarnation, and crash recovery's
    full replay applies none of the old one's records to it."""
    db = sales_db()
    for i in range(1, 5):
        with db.session() as s:
            s.insert("sales", {
                "id": i, "product": f"p{i}", "customer": 0, "amount": i,
            })
    definition = db.catalog.view("by_product")
    db.indexes.drop_view(definition)
    for i in (1, 2):
        with db.session() as s:
            s.delete("sales", (i,))
    db.create_view(sales_db().catalog.view("by_product"))
    expected = view_rows(db)
    assert set(expected) == {("p3",), ("p4",)}

    db.simulate_crash_and_recover()
    assert view_rows(db) == expected
    assert db.check_all_views() == []


@pytest.mark.parametrize("kind", ["join", "join_aggregate"])
def test_a_join_view_keyed_by_a_primary_key_column_restores(kind, tmp_path):
    """``lines`` is joined on ``order_id``, which is also in its primary
    key, so the ``#leftfk`` index keys by ``order_id`` twice: its layout
    names the column once, as the stored row does. Inserts, crash
    recovery and a segment restore all pack and read it."""
    def engine():
        db = Database(EngineConfig(buffer_pool_frames=4, page_size=512))
        db.create_table("orders", ("order_id", "customer"), ("order_id",))
        db.create_table("lines", ("order_id", "line", "qty"),
                        ("order_id", "line"))
        on = [("order_id", "order_id")]
        db.create_view(
            JoinView("v", "lines", "orders", on=on,
                     columns=("order_id", "line", "qty", "customer"))
            if kind == "join" else
            JoinAggregateView("v", "lines", "orders", on=on,
                              group_by=("customer",),
                              aggregates=[AggregateSpec.count("n")])
        )
        return db

    db = engine()
    assert db.index("v#leftfk").layout.columns == ("order_id", "line")
    for o in range(1, 4):
        with db.session() as s:
            s.insert("orders", {"order_id": o, "customer": f"c{o % 2}"})
            for line in range(1, 4):
                s.insert("lines", {"order_id": o, "line": line, "qty": line})
    with db.session() as s:
        s.delete("lines", (2, 2))
    expected = {k: dict(r.current_row) for k, r in db.index("v").scan()}
    assert expected

    db.simulate_crash_and_recover()
    assert {k: dict(r.current_row) for k, r in db.index("v").scan()} == expected
    assert db.check_all_views() == []

    db.dump_wal_segments(tmp_path)
    restored = engine()
    restored.load_wal_segments_and_recover(tmp_path)
    assert {
        k: dict(r.current_row) for k, r in restored.index("v").scan()
    } == expected
    assert restored.check_all_views() == []
