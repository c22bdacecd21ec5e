"""The storage contract: docs/STORAGE.md ↔ repro.obs.schema ↔ live engine.

Mirrors the OBSERVABILITY.md pattern (``tests/test_obs.py``): every field
table in the doc is parsed and compared against the pinned schema
constant, and the schema constants are compared against what the live
engine actually produces — so the doc, the schema, and the code cannot
drift apart silently.
"""

import json
import pathlib
import re

from repro.core import Database, EngineConfig
from repro.obs import (
    BUFFER_POOL_STATS_FIELDS,
    CHECKPOINT_RECORD_FIELDS,
    FLOOR_MARKER_FIELDS,
    LAYOUT_ENTRY_FIELDS,
    PAGE_ENTRY_FIELDS,
    PAGE_HEADER_FIELDS,
    PAGE_STATES,
    RECORD_HEADER_FIELDS,
    SEGMENT_FRAME_FIELDS,
    SEGMENT_HEADER_FIELDS,
    SEGMENT_TRAILER_FIELDS,
    VALUE_TAGS,
)
from repro.query import AggregateSpec
from repro.storage.pages import MAX_PAGE_SIZE, MIN_PAGE_SIZE, PAGE_HEADER, PAGE_SLOT
from repro.wal import codec
from repro.wal.records import CheckpointRecord
from repro.wal.segments import load_segments
from repro.workload import BY_PRODUCT, SALES
from repro.views import AggregateView
from tests.test_wal_codec import frames_of

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "STORAGE.md"

#: doc section name -> the schema constant its field rows must match
CONTRACTS = {
    "page_header": PAGE_HEADER_FIELDS,
    "page_entry": PAGE_ENTRY_FIELDS,
    "value_tags": VALUE_TAGS,
    "segment_frame": SEGMENT_FRAME_FIELDS,
    "record_header": RECORD_HEADER_FIELDS,
    "segment_header": SEGMENT_HEADER_FIELDS,
    "layout_entry": LAYOUT_ENTRY_FIELDS,
    "segment_trailer": SEGMENT_TRAILER_FIELDS,
    "floor_marker": FLOOR_MARKER_FIELDS,
    "checkpoint_record": CHECKPOINT_RECORD_FIELDS,
    "buffer_pool_stats": BUFFER_POOL_STATS_FIELDS,
    "page_states": PAGE_STATES,
}


def _section_rows(text, name):
    """The first backticked cell of every table row in section ``name``."""
    section = re.search(
        r"^#### `%s`$(.*?)(?=^#### |^## |\Z)" % name,
        text,
        re.MULTILINE | re.DOTALL,
    )
    assert section, f"docs/STORAGE.md is missing the `{name}` section"
    return re.findall(r"^\| `(\w+)` \|", section.group(1), re.MULTILINE)


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


def insert(db, i):
    with db.session() as s:
        s.insert(
            SALES, {"id": i, "product": "a", "customer": 1, "amount": 2}
        )


class TestDocContract:
    """Every documented field table matches its schema constant exactly."""

    def test_documented_sections_match_schema(self):
        text = DOC.read_text()
        for name, pinned in CONTRACTS.items():
            rows = _section_rows(text, name)
            assert set(rows) == set(pinned), f"field mismatch in `{name}`"

    def test_ordered_contracts_document_struct_order(self):
        # Header fields, byte layouts, tags and frame states are ordered
        # contracts (struct layout / tag byte / lifecycle order), not
        # just sets.
        text = DOC.read_text()
        for name in ("page_header", "page_states", "page_entry",
                     "value_tags", "segment_frame", "record_header",
                     "layout_entry"):
            assert _section_rows(text, name) == list(CONTRACTS[name]), name

    def test_value_tag_bytes_are_documented_in_tag_order(self):
        section = DOC.read_text().split("#### `value_tags`")[1]
        rows = re.findall(r"^\| `(\w+)` \| `(\d+)` \|", section, re.MULTILINE)
        assert rows == [(tag, str(byte)) for byte, tag in enumerate(VALUE_TAGS)]

    def test_doc_pins_the_struct_formats_and_bounds(self):
        text = DOC.read_text()
        assert "<IQHHI" in text and "<HH" in text
        for layout in (codec.RECORD_HEADER, codec.ENTRY_HEADER,
                       codec.FRAME_HEADER):
            assert f"`{layout.format}` ({layout.size} bytes)" in text
        assert f"MIN_PAGE_SIZE = {MIN_PAGE_SIZE}" in text
        assert f"MAX_PAGE_SIZE = {MAX_PAGE_SIZE}" in text
        assert f"({PAGE_HEADER.size} bytes)" in text
        assert f"({PAGE_SLOT.size} bytes)" in text


class TestSchemaMatchesEngine:
    """The schema constants match what the live engine produces."""

    def test_page_header_fields_cover_the_struct(self):
        assert len(PAGE_HEADER_FIELDS) == len(PAGE_HEADER.unpack(b"\0" * PAGE_HEADER.size))

    def test_codec_headers_cover_their_documented_fields(self):
        def width(layout):
            return len(layout.unpack(bytes(layout.size)))

        assert width(codec.RECORD_HEADER) == len(RECORD_HEADER_FIELDS)
        # the packed part of an entry / a frame; the rest is
        # length-prefixed (key, row) or sized by `length` (record)
        assert width(codec.ENTRY_HEADER) == len(PAGE_ENTRY_FIELDS) - 2
        assert width(codec.FRAME_HEADER) == len(SEGMENT_FRAME_FIELDS) - 1

    def test_every_tag_is_the_first_byte_its_type_packs(self):
        import datetime
        import decimal

        samples = {
            "none": None, "false": False, "true": True, "int8": -7,
            "int16": 300, "int32": 70_000, "int64": 2**40, "bigint": 2**70,
            "float": -0.0, "str": "é", "bytes": b"\x00", "tuple": (1, (2,)),
            "decimal": decimal.Decimal("1.10"),
            "date": datetime.date(2026, 1, 2),
            "datetime": datetime.datetime(2026, 1, 2, 3, 4, 5, 6),
            "datetime_tz": datetime.datetime(
                2026, 1, 2, tzinfo=datetime.timezone.utc
            ),
        }
        assert set(samples) == set(VALUE_TAGS)
        for byte, tag in enumerate(VALUE_TAGS):
            parts = []
            codec.pack_value(samples[tag], parts.append)
            packed = b"".join(parts)
            assert packed[0] == byte, tag
            value, end = codec.unpack_value(packed, 0)
            assert end == len(packed) and type(value) is type(samples[tag])
            assert value == samples[tag] and repr(value) == repr(samples[tag])

    def test_buffer_pool_stats_shape(self):
        db = sales_db()
        insert(db, 1)
        pool = db.stats()["storage"]["pool"]
        assert set(pool) == set(BUFFER_POOL_STATS_FIELDS)

    def test_checkpoint_record_payload_shape(self, tmp_path):
        db = sales_db()
        insert(db, 1)
        db.take_checkpoint()
        db.dump_wal_segments(tmp_path)
        checkpoints = [
            record for record in load_segments(tmp_path).records()
            if isinstance(record, CheckpointRecord)
        ]
        assert checkpoints, "no checkpoint record in the dumped segments"
        for record in checkpoints:
            assert {attr for attr, _ in record.fields} == set(
                CHECKPOINT_RECORD_FIELDS
            )
            # the display form: body fields beside the record envelope
            envelope = {"type", "lsn", "txn_id", "prev_lsn"}
            assert set(record.to_dict()) - envelope == set(
                CHECKPOINT_RECORD_FIELDS
            )

    def test_segment_header_and_trailer_shape(self, tmp_path):
        db = sales_db()
        for i in range(1, 6):
            insert(db, i)
        db.dump_wal_segments(tmp_path)
        files = sorted(tmp_path.glob("wal.*.seg"))
        assert files
        framed = 0
        for seg in files:
            raw = seg.read_bytes()
            head_end = raw.index(b"\n")
            body_end = raw.rindex(b"\n", 0, len(raw) - 1)
            header = json.loads(raw[:head_end])
            trailer = json.loads(raw[body_end + 1:])
            assert set(header) == set(SEGMENT_HEADER_FIELDS)
            assert all(
                len(entry) == len(LAYOUT_ENTRY_FIELDS)
                for entry in header["layouts"]
            )
            assert set(trailer) == set(SEGMENT_TRAILER_FIELDS)
            frames = list(frames_of(raw[head_end + 1:body_end]))
            assert len(frames) == trailer["records"]
            framed += sum(len(payload) for payload, _ in frames)
        # the framed bytes are the very bytes the log manager counted
        assert framed == db.log.bytes_estimate == db.stats()["wal"]["bytes"]
        marker = json.loads((tmp_path / "wal.floor").read_text())
        assert set(marker) == set(FLOOR_MARKER_FIELDS)
        assert marker["segments"] == len(files)
