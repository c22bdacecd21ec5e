"""The benchmark result JSON schema and its validator.

Every benchmark writes ``benchmarks/results/<name>.json`` through
:func:`benchmarks.harness.emit`. This module is the single source of
truth for what that document must contain, so regression tooling
(``benchmarks/check_results.py``, the golden-file test, future
dashboards) can rely on the shape without parsing ``.txt`` tables.

The validator is hand-rolled (the repo takes no dependencies); it
returns a list of problem strings, empty when the document conforms.
"""

RESULT_SCHEMA_VERSION = 1

#: allowed values for claim.verdict
VERDICTS = ("pass", "fail", "not-evaluated")

#: top-level required keys -> expected type(s)
_TOP_LEVEL = {
    "schema_version": int,
    "name": str,
    "title": str,
    "params": dict,
    "table": dict,
    "series": dict,
    "claim": dict,
    "counters": dict,
    "lock_stats": dict,
}

#: optional top-level keys -> expected type(s)
_OPTIONAL = {
    # protocol-sanitizer verdict block (harnesses that ran the
    # repro.analysis suite record it here; see docs/ANALYSIS.md)
    "sanitizers": dict,
}

_CLAIM = {
    "description": str,
    "verdict": str,
    "checks": list,
}

#: pinned shape of ``RecoveryReport.as_dict()`` — key -> expected type.
#: Chaos/crash-storm harnesses assert against this so the report cannot
#: silently drop the salvage/restart accounting.
RECOVERY_REPORT_FIELDS = {
    "winners": list,
    "losers": list,
    "in_doubt": list,
    "redo_count": int,
    "undo_count": int,
    "clrs_written": int,
    "analyzed_records": int,
    "redo_skipped": int,
    "pages_loaded": int,
    "salvage": (dict, type(None)),
    "restarts": int,
}

#: pinned shape of one serialized static-analysis diagnostic
#: (``Diagnostic.to_doc()``; the ``SA...`` catalogue is in
#: docs/ANALYSIS.md).
DIAGNOSTIC_FIELDS = {
    "code": str,
    "severity": str,
    "subject": str,
    "message": str,
    "evidence": list,
}

#: pinned shape of ``StaticReport.to_doc()`` — the whole-catalog
#: analyzer verdict (``make analyze``, ``python -m repro.analysis.check``,
#: the analyze_smoke benchmark).
STATIC_REPORT_FIELDS = {
    "views_checked": list,
    "counts": dict,
    "diagnostics": list,
    "graph_nodes": int,
    "graph_edges": int,
    "deadlock_components": list,
}

# ---------------------------------------------------------------------
# the on-disk storage contract (docs/STORAGE.md is the prose side; the
# contract test asserts the doc's field tables match these sets)
# ---------------------------------------------------------------------

#: slotted-page header fields, in struct order (``<IQHHI``).
PAGE_HEADER_FIELDS = ("page_id", "page_lsn", "slot_count", "free_end", "crc")

#: one page entry (``repro.wal.codec.pack_entry``), in layout order: a
#: packed ``<BI`` header, then the length-prefixed name, key and row.
PAGE_ENTRY_FIELDS = ("flags", "lsn", "index", "key", "row")

#: the fixed header of every log record, in struct order (``<BIII``).
RECORD_HEADER_FIELDS = ("type", "lsn", "txn_id", "prev_lsn")

#: the tagged values rows, keys and record fields are built from, in tag
#: order (tag byte = position).
VALUE_TAGS = (
    "none", "false", "true", "int8", "int16", "int32", "int64", "bigint",
    "float", "str", "bytes", "tuple", "decimal", "date", "datetime",
    "datetime_tz",
)

#: one frame of a segment body, in layout order: a packed ``<II``
#: header, then the record's bytes.
SEGMENT_FRAME_FIELDS = ("length", "crc", "record")

#: the JSON header line of every WAL segment file.
SEGMENT_HEADER_FIELDS = {"segment", "first_lsn"}

#: the JSON trailer line sealing every WAL segment file.
SEGMENT_TRAILER_FIELDS = {"segment", "records", "last_lsn", "crc"}

#: the ``wal.floor`` truncation marker beside the segment chain.
FLOOR_MARKER_FIELDS = {"first_lsn", "segments"}

#: payload keys of a checkpoint log record.
CHECKPOINT_RECORD_FIELDS = {"active_txns", "dirty_pages"}

#: keys of ``BufferPool.stats()`` (surfaced as ``stats()["storage"]["pool"]``).
BUFFER_POOL_STATS_FIELDS = {
    "frames", "dirty", "hits", "misses",
    "evictions", "dirty_evictions", "forced_wal_flushes",
}

#: pinned key set of ``ShardedDatabase.stats()["net"]`` — the message
#: transport's delivery/fault counters plus the failure detector's
#: heartbeat counters (docs/OBSERVABILITY.md).
NET_STATS_FIELDS = {
    "messages", "delivered", "request_lost", "reply_lost", "duplicates",
    "reordered", "delayed", "retries", "gave_up", "dedup_absorbed",
    "heartbeats", "suspected", "readmitted",
}

#: pinned key set of ``Database.stats()["lock"]`` (``LockStats.as_dict()``).
#: ``requests`` counts calls that reached the lock manager's queues,
#: ``covered`` re-requests a transaction answered from its held-lock
#: table; their sum is the number of ``Transaction.acquire`` calls.
LOCK_STATS_FIELDS = {
    "requests", "covered", "immediate_grants", "waits", "conversions",
    "deadlocks", "denials", "timeouts",
}

#: lifecycle states a leaf's page moves through.
PAGE_STATES = ("clean", "dirty", "freed")

#: pinned shape of the salvage sub-report (``RecoveryReport.salvage``
#: when not None; also carried by WalCorruptionError.salvage).
SALVAGE_REPORT_FIELDS = {
    "truncated_lsn": (int, type(None)),
    "corrupt_record": (str, type(None)),
    "dropped_records": int,
    "lost_commits": list,
    "tail_garbage": int,
    "undecodable_lines": int,
}


def _check_fields(obj, fields, where, optional=None):
    """The one field checker: ``fields`` (and ``optional``) map key ->
    expected type(s). Returns a problem string per missing key, wrong
    type and unexpected extra key."""
    if not isinstance(obj, dict):
        return [f"{where}: not an object"]
    optional = optional or {}
    problems = [f"{where}: missing key {key!r}" for key in fields
                if key not in obj]
    for key, value in obj.items():
        expected = fields.get(key, optional.get(key))
        if expected is None:
            problems.append(f"{where}: unexpected extra key {key!r}")
        elif not isinstance(value, expected):
            names = expected if isinstance(expected, tuple) else (expected,)
            problems.append(
                f"{where}: {key!r} is {type(value).__name__}, expected "
                + " or ".join(t.__name__ for t in names)
            )
    return problems


def validate_recovery_report(doc, label="recovery_report"):
    """Validate a ``RecoveryReport.as_dict()`` document (including its
    salvage sub-report, when present). Returns problem strings."""
    if not isinstance(doc, dict):
        return [f"{label}: document is {type(doc).__name__}, not an object"]
    problems = _check_fields(doc, RECOVERY_REPORT_FIELDS, label)
    if doc.get("salvage") is not None:
        problems += _check_fields(
            doc["salvage"], SALVAGE_REPORT_FIELDS, f"{label}.salvage"
        )
    return problems


def validate_static_report(doc, label="static_report"):
    """Validate a ``StaticReport.to_doc()`` document, including each
    diagnostic's shape and severity/count agreement. Returns problem
    strings (empty = valid)."""
    if not isinstance(doc, dict):
        return [f"{label}: document is {type(doc).__name__}, not an object"]
    problems = _check_fields(doc, STATIC_REPORT_FIELDS, label)
    if problems:
        return problems
    counts = doc["counts"]
    if set(counts) != {"error", "warning", "info"}:
        problems.append(f"{label}: counts keys are {sorted(counts)}")
    tally = {"error": 0, "warning": 0, "info": 0}
    for i, diag in enumerate(doc["diagnostics"]):
        where = f"{label}.diagnostics[{i}]"
        if not isinstance(diag, dict):
            problems.append(f"{where}: not an object")
            continue
        problems += _check_fields(diag, DIAGNOSTIC_FIELDS, where)
        severity = diag.get("severity")
        if severity in tally:
            tally[severity] += 1
        else:
            problems.append(f"{where}: unknown severity {severity!r}")
        code = diag.get("code")
        if not (isinstance(code, str) and code.startswith("SA")):
            problems.append(f"{where}: code {code!r} is not an SA code")
    if not problems and tally != counts:
        problems.append(
            f"{label}: counts {counts} disagree with diagnostics {tally}"
        )
    return problems


def validate_result(doc, label="result"):
    """Validate one benchmark result document.

    Returns a list of problem strings (empty = valid).
    """
    if not isinstance(doc, dict):
        return [f"{label}: document is {type(doc).__name__}, not an object"]
    problems = _check_fields(doc, _TOP_LEVEL, label, _OPTIONAL)
    if problems:
        return problems
    if doc["schema_version"] != RESULT_SCHEMA_VERSION:
        problems.append(
            f"{label}: schema_version {doc['schema_version']} != "
            f"{RESULT_SCHEMA_VERSION}"
        )
    table = doc["table"]
    headers = table.get("headers")
    rows = table.get("rows")
    if not isinstance(headers, list) or not all(
        isinstance(h, str) for h in headers
    ):
        problems.append(f"{label}: table.headers must be a list of strings")
    if not isinstance(rows, list):
        problems.append(f"{label}: table.rows must be a list")
    elif isinstance(headers, list):
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(headers):
                problems.append(
                    f"{label}: table.rows[{i}] does not match headers "
                    f"(want {len(headers)} cells)"
                )
                break
    claim = doc["claim"]
    problems += _check_fields(claim, _CLAIM, f"{label}.claim")
    verdict = claim.get("verdict")
    if verdict is not None and verdict not in VERDICTS:
        problems.append(
            f"{label}: claim.verdict {verdict!r} not in {VERDICTS!r}"
        )
    for i, check in enumerate(claim.get("checks") or []):
        if (
            not isinstance(check, dict)
            or not isinstance(check.get("label"), str)
            or not isinstance(check.get("ok"), bool)
        ):
            problems.append(
                f"{label}: claim.checks[{i}] must be "
                "{'label': str, 'ok': bool}"
            )
    if verdict == "pass" and any(
        not c.get("ok", False) for c in claim.get("checks") or []
    ):
        problems.append(f"{label}: verdict is 'pass' but a check failed")
    return problems
