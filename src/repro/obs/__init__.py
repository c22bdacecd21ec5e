"""Observability: structured event tracing, per-txn metrics, schemas.

See ``docs/OBSERVABILITY.md`` for the event catalogue, the
``Database.stats()`` schema, and the benchmark result JSON contract.
"""

from repro.obs.events import CATEGORIES, EVENT_TYPES, Event
from repro.obs.metrics import (
    Counters,
    EngineMetrics,
    Histogram,
    RetryStats,
    format_table,
)
from repro.obs.schema import (
    BUFFER_POOL_STATS_FIELDS,
    CHECKPOINT_RECORD_FIELDS,
    FLOOR_MARKER_FIELDS,
    LOCK_STATS_FIELDS,
    LAYOUT_ENTRY_FIELDS,
    NET_STATS_FIELDS,
    PAGE_ENTRY_FIELDS,
    PAGE_HEADER_FIELDS,
    PAGE_STATES,
    DIAGNOSTIC_FIELDS,
    RECORD_HEADER_FIELDS,
    RECOVERY_REPORT_FIELDS,
    RESULT_SCHEMA_VERSION,
    SALVAGE_REPORT_FIELDS,
    SEGMENT_FRAME_FIELDS,
    SEGMENT_HEADER_FIELDS,
    SEGMENT_TRAILER_FIELDS,
    STATIC_REPORT_FIELDS,
    VALUE_TAGS,
    VERDICTS,
    validate_recovery_report,
    validate_result,
    validate_static_report,
)
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "BUFFER_POOL_STATS_FIELDS",
    "CATEGORIES",
    "CHECKPOINT_RECORD_FIELDS",
    "Counters",
    "DIAGNOSTIC_FIELDS",
    "EVENT_TYPES",
    "FLOOR_MARKER_FIELDS",
    "Event",
    "EngineMetrics",
    "Histogram",
    "LOCK_STATS_FIELDS",
    "LAYOUT_ENTRY_FIELDS",
    "NET_STATS_FIELDS",
    "NULL_TRACER",
    "PAGE_ENTRY_FIELDS",
    "PAGE_HEADER_FIELDS",
    "PAGE_STATES",
    "RECORD_HEADER_FIELDS",
    "RECOVERY_REPORT_FIELDS",
    "RESULT_SCHEMA_VERSION",
    "RetryStats",
    "SALVAGE_REPORT_FIELDS",
    "SEGMENT_FRAME_FIELDS",
    "SEGMENT_HEADER_FIELDS",
    "SEGMENT_TRAILER_FIELDS",
    "STATIC_REPORT_FIELDS",
    "Tracer",
    "VALUE_TAGS",
    "VERDICTS",
    "format_table",
    "validate_recovery_report",
    "validate_result",
    "validate_static_report",
]
