"""Write-ahead logging and crash recovery."""

from repro.wal.analysis import (
    bytes_by_type,
    maintenance_share,
    records_by_type,
    summarize,
    txn_footprint,
)
from repro.wal.group_commit import CommitTicket, GroupCommitCoordinator
from repro.wal.log import LogManager
from repro.wal.records import (
    AbortRecord,
    CheckpointRecord,
    CleanupRecord,
    CommitRecord,
    CompensationRecord,
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
from repro.wal.recovery import (
    RecoveryReport,
    RecoveryTarget,
    analyze,
    recover,
    redo,
    salvage,
    undo,
)
from repro.wal.segments import (
    dump_segments,
    load_segments,
    recycle_segments,
)

__all__ = [
    "AbortRecord",
    "CheckpointRecord",
    "CleanupRecord",
    "CommitRecord",
    "CommitTicket",
    "CompensationRecord",
    "DecisionRecord",
    "EndRecord",
    "EscrowDeltaRecord",
    "GhostRecord",
    "GroupCommitCoordinator",
    "InsertRecord",
    "LogManager",
    "LogRecord",
    "PrepareRecord",
    "RecordType",
    "RecoveryReport",
    "RecoveryTarget",
    "ReviveRecord",
    "UpdateRecord",
    "analyze",
    "bytes_by_type",
    "dump_segments",
    "load_segments",
    "maintenance_share",
    "recover",
    "records_by_type",
    "recycle_segments",
    "redo",
    "salvage",
    "summarize",
    "txn_footprint",
    "undo",
]
