"""Log analysis utilities: what is in the WAL, and who wrote it.

Operational tooling over the log — record/byte histograms by type, per-
transaction footprints, and an end-to-end summary. Benchmark R9 uses the
byte accounting; the introspection examples print the summaries; tests
use the per-transaction footprint to assert logging behaviour precisely.
Everything here reads the stored record headers and sizes; only the
footprint's index names need a record decoded.
"""

from repro.wal.records import RecordType, RowChangeRecord


def records_by_type(log):
    """Record counts per :class:`RecordType` (zero-count types omitted)."""
    counts = {}
    for cls, _, _, _ in log.headers():
        counts[cls.type] = counts.get(cls.type, 0) + 1
    return counts


def bytes_by_type(log):
    """Stored bytes per record type — the payloads
    ``LogManager.bytes_estimate`` sums and the segment writer frames."""
    sizes = {}
    for cls, lsn, _, _ in log.headers():
        sizes[cls.type] = sizes.get(cls.type, 0) + len(log.payload(lsn))
    return sizes


def txn_footprint(log, txn_id):
    """One transaction's full log footprint.

    Returns a dict with the record count, stored bytes, touched index
    names, and outcome flags: ``committed`` (a COMMIT, a winner's last
    record), ``aborted`` (an ABORT) and ``rolled_back_complete`` (the END
    after a rollback's last CLR). A silent transaction has no records.
    """
    count = 0
    size = 0
    indexes = set()
    committed = aborted = rolled_back_complete = False
    for cls, lsn, owner, _ in log.headers():
        if owner != txn_id:
            continue
        count += 1
        size += len(log.payload(lsn))
        if issubclass(cls, RowChangeRecord):
            indexes.add(log.record_at(lsn).index_name)
        if cls.type is RecordType.COMMIT:
            committed = True
        elif cls.type is RecordType.ABORT:
            aborted = True
        elif cls.type is RecordType.END:
            rolled_back_complete = True
    return {
        "txn_id": txn_id,
        "records": count,
        "bytes": size,
        "indexes": sorted(indexes),
        "committed": committed,
        "aborted": aborted,
        "rolled_back_complete": rolled_back_complete,
    }


def summarize(log):
    """A one-stop summary for reports and debugging (a transaction that
    changed nothing logged nothing, and is not ``seen``)."""
    type_counts = records_by_type(log)
    txn_ids = {txn_id for _, _, txn_id, _ in log.headers()}
    txn_ids.discard(None)
    return {
        "total_records": len(log),
        "total_bytes": log.bytes_estimate,
        "flushed_lsn": log.flushed_lsn,
        "transactions_seen": len(txn_ids),
        "commits": type_counts.get(RecordType.COMMIT, 0),
        "aborts": type_counts.get(RecordType.ABORT, 0),
        "clrs": type_counts.get(RecordType.CLR, 0),
        "checkpoints": type_counts.get(RecordType.CHECKPOINT, 0),
        "by_type": {t.value: n for t, n in sorted(type_counts.items(), key=lambda i: i[0].value)},
    }


def maintenance_share(log):
    """What fraction of data records (and bytes) are view maintenance?

    Heuristic by index name: records touching an index that is not a base
    table look like maintenance. The caller supplies no schema — the
    split is by record type instead: escrow deltas and counter images are
    always maintenance; inserts/updates/ghosts may be either, so this
    reports them separately.
    """
    maintenance_types = {RecordType.ESCROW_DELTA, RecordType.COUNTER_IMAGE}
    data = 0
    pure_maintenance = 0
    for cls, _, _, _ in log.headers():
        if issubclass(cls, RowChangeRecord):
            data += 1
            if cls.type in maintenance_types:
                pure_maintenance += 1
    return {
        "data_records": data,
        "counter_maintenance_records": pure_maintenance,
        "counter_maintenance_fraction": (
            pure_maintenance / data if data else 0.0
        ),
    }
