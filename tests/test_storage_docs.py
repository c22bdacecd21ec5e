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
    PAGE_HEADER_FIELDS,
    PAGE_STATES,
    SEGMENT_HEADER_FIELDS,
    SEGMENT_TRAILER_FIELDS,
)
from repro.query import AggregateSpec
from repro.storage.pages import MAX_PAGE_SIZE, MIN_PAGE_SIZE, PAGE_HEADER, PAGE_SLOT
from repro.wal.records import RecordType
from repro.workload import BY_PRODUCT, SALES
from repro.views import AggregateView

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "STORAGE.md"

#: doc section name -> the schema constant its field rows must match
CONTRACTS = {
    "page_header": PAGE_HEADER_FIELDS,
    "segment_header": SEGMENT_HEADER_FIELDS,
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
    with db.transaction() as txn:
        db.insert(
            txn, SALES, {"id": i, "product": "a", "customer": 1, "amount": 2}
        )


class TestDocContract:
    """Every documented field table matches its schema constant exactly."""

    def test_documented_sections_match_schema(self):
        text = DOC.read_text()
        for name, pinned in CONTRACTS.items():
            rows = _section_rows(text, name)
            assert set(rows) == set(pinned), f"field mismatch in `{name}`"

    def test_ordered_contracts_document_struct_order(self):
        # Header fields and frame states are ordered contracts (struct
        # layout / lifecycle order), not just sets.
        text = DOC.read_text()
        assert _section_rows(text, "page_header") == list(PAGE_HEADER_FIELDS)
        assert _section_rows(text, "page_states") == list(PAGE_STATES)

    def test_doc_pins_the_struct_formats_and_bounds(self):
        text = DOC.read_text()
        assert "<IQHHI" in text and "<HH" in text
        assert f"MIN_PAGE_SIZE = {MIN_PAGE_SIZE}" in text
        assert f"MAX_PAGE_SIZE = {MAX_PAGE_SIZE}" in text
        assert f"({PAGE_HEADER.size} bytes)" in text
        assert f"({PAGE_SLOT.size} bytes)" in text


class TestSchemaMatchesEngine:
    """The schema constants match what the live engine produces."""

    def test_page_header_fields_cover_the_struct(self):
        assert len(PAGE_HEADER_FIELDS) == len(PAGE_HEADER.unpack(b"\0" * PAGE_HEADER.size))

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
        # checkpoint payload keys sit beside the record envelope
        # (type/lsn/txn_id/prev_lsn + optional crc stamp)
        envelope = {"type", "lsn", "txn_id", "prev_lsn", "crc"}
        payloads = []
        for seg in sorted(tmp_path.glob("wal.*.seg")):
            for line in seg.read_text().splitlines():
                doc = json.loads(line)
                if doc.get("type") == RecordType.CHECKPOINT.value:
                    payloads.append(set(doc) - envelope)
        assert payloads, "no checkpoint record in the dumped segments"
        for payload in payloads:
            assert payload == set(CHECKPOINT_RECORD_FIELDS)

    def test_segment_header_and_trailer_shape(self, tmp_path):
        db = sales_db()
        for i in range(1, 6):
            insert(db, i)
        db.dump_wal_segments(tmp_path)
        files = sorted(tmp_path.glob("wal.*.seg"))
        assert files
        for seg in files:
            lines = seg.read_text().splitlines()
            assert set(json.loads(lines[0])) == set(SEGMENT_HEADER_FIELDS)
            assert set(json.loads(lines[-1])) == set(SEGMENT_TRAILER_FIELDS)
        marker = json.loads((tmp_path / "wal.floor").read_text())
        assert set(marker) == set(FLOOR_MARKER_FIELDS)
        assert marker["segments"] == len(files)
