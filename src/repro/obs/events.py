"""The typed event catalogue: the stability contract of the tracer.

Every event the engine can emit is registered here, with its category
and field schema. :meth:`~repro.obs.tracer.Tracer.emit` rejects names
that are not in :data:`EVENT_TYPES`, and a test asserts that
``docs/OBSERVABILITY.md`` documents exactly this catalogue — the doc and
the code cannot drift apart silently.

Field values are plain Python objects (resources are tuples, modes are
enum members); :meth:`Event.as_dict` stringifies anything non-JSON so an
event stream can always be serialized and replayed.

Timestamps are **logical clock ticks** (the engine never reads wall
time), and ``seq`` is a per-tracer monotonic sequence number: two events
with the same tick still have a total order.
"""

#: name -> {"category": str, "fields": {field_name: description}}
EVENT_TYPES = {
    # ------------------------------------------------------------ lock
    "lock_acquire": {
        "category": "lock",
        "fields": {
            "resource": "the locked resource tuple",
            "mode": "granted mode (LockMode or RangeMode)",
            "conversion": "True if this upgraded an already-held lock",
        },
    },
    "lock_wait": {
        "category": "lock",
        "fields": {
            "resource": "the contested resource tuple",
            "mode": "requested mode",
        },
    },
    "lock_grant": {
        "category": "lock",
        "fields": {
            "resource": "the resource a queued request was granted on",
            "mode": "granted mode",
        },
    },
    "lock_deny": {
        "category": "lock",
        "fields": {
            "resource": "the resource of the denied request",
            "victim": "txn chosen as deadlock victim",
            "cycle": "the waits-for cycle, as a txn-id tuple",
        },
    },
    "lock_timeout": {
        "category": "lock",
        "fields": {
            "resource": "the resource the timed-out request waited on",
            "waited": "ticks spent waiting before the deadline expired",
        },
    },
    "lock_release": {
        "category": "lock",
        "fields": {"count": "number of resources released at commit/abort"},
    },
    "lock_escalate": {
        "category": "lock",
        "fields": {
            "index": "index whose key locks were escalated",
            "mode": "table-level mode escalated to (S or X)",
            "key_locks": "fine-grained locks held when the threshold tripped",
        },
    },
    # ------------------------------------------------------------- wal
    "wal_append": {
        "category": "wal",
        "fields": {
            "lsn": "assigned log sequence number",
            "record": "log record type name",
            "bytes": "estimated serialized size",
        },
    },
    "wal_flush": {
        "category": "wal",
        "fields": {
            "flushed_lsn": "new durable prefix boundary",
            "records": "records made durable by this flush",
        },
    },
    "group_commit": {
        "category": "wal",
        "fields": {
            "members": "committed transactions made durable together",
            "flushed_lsn": "durable prefix boundary after the group flush",
            "leader": "txn id of the flush leader (None when an external "
            "flush, e.g. a checkpoint, settled the group)",
        },
    },
    # ------------------------------------------------------------- txn
    "txn_begin": {
        "category": "txn",
        "fields": {
            "isolation": "isolation level",
            "system": "True for nested top-level (system) transactions",
        },
    },
    "txn_commit": {
        "category": "txn",
        "fields": {
            "commit_ts": "commit timestamp (logical ticks)",
            "latency": "ticks from begin to commit",
            "log_bytes": "estimated log bytes this transaction appended",
            "actions": "maintenance/base actions executed",
        },
    },
    "txn_abort": {
        "category": "txn",
        "fields": {"reason": "abort reason string"},
    },
    "txn_rollback": {
        "category": "txn",
        "fields": {"to_lsn": "savepoint LSN rolled back to (None = full)"},
    },
    "txn_retry": {
        "category": "txn",
        "fields": {
            "attempt": "the attempt number that just failed (1 = first run)",
            "backoff": "ticks of backoff slept before re-executing",
            "reason": "abort reason that triggered the retry",
        },
    },
    # ------------------------------------------------------------ view
    "view_action_compile": {
        "category": "view",
        "fields": {
            "statement": "description of the first (base) action",
            "actions": "number of actions in the statement",
            "locks": "total lock-plan entries across the actions",
        },
    },
    "view_action_apply": {
        "category": "view",
        "fields": {"action": "description of the applied action"},
    },
    "view_online_build": {
        "category": "view",
        "fields": {
            "view": "the view being built",
            "phase": "snapshot | flip | completed | vanished | "
            "completed_on_recovery",
            "rows": "index rows the finished phase wrote or corrected, "
            "over every index the view owns (0 when it writes none)",
        },
    },
    # ----------------------------------------------------------- fault
    "fault_injected": {
        "category": "fault",
        "fields": {
            "site": "the fault site that fired (see repro.faults.FAULT_SITES)",
            "hit": "how many times the site had been evaluated when it fired",
            "action": "failure shape: raise | crash | deny | delay | torn | "
            "lost | corrupt | duplicate | reorder",
        },
    },
    # --------------------------------------------------------- cleanup
    "ghost_cleanup": {
        "category": "cleanup",
        "fields": {
            "index": "index the candidate belongs to",
            "key": "candidate key",
            "outcome": "removed | requeued | skipped_live | deferred",
        },
    },
    # -------------------------------------------------------- recovery
    "recovery_restarted": {
        "category": "recovery",
        "fields": {
            "attempt": "1-based number of this recovery attempt (2 = first "
            "re-entry after a crash inside recovery)",
        },
    },
    "wal_salvage": {
        "category": "recovery",
        "fields": {
            "truncated_lsn": "LSN of the first corrupt record, where the "
            "log was cut (None when only the file tail was undecodable)",
            "dropped": "records discarded by the truncation",
            "lost_commits": "txn ids whose committed work was rolled back",
            "tail_garbage": "dropped records belonging to no lost commit",
        },
    },
    # --------------------------------------------------------- storage
    "page_evicted": {
        "category": "storage",
        "fields": {
            "page_id": "the leaf page written back",
            "dirty": "True: the leaf's image was written back",
            "page_lsn": "the page's LSN at eviction (the WAL-before-"
            "write bound: the log was durable to here before the write)",
        },
    },
    "checkpoint_taken": {
        "category": "storage",
        "fields": {
            "lsn": "LSN of the checkpoint record",
            "active_txns": "transactions open at the checkpoint",
            "dirty_pages": "dirty-page-table entries captured",
        },
    },
    # ------------------------------------------------------------ dist
    "2pc_prepare": {
        "category": "dist",
        "fields": {
            "gid": "global transaction id",
            "partition": "participant partition index",
            "vote": "yes | no (no = the branch failed to prepare)",
        },
    },
    "2pc_decide": {
        "category": "dist",
        "fields": {
            "gid": "global transaction id",
            "decision": "commit | abort",
            "durable": "True when the decision record reached the "
            "coordinator log's durable prefix (an undecided gid is "
            "presumed aborted)",
            "participants": "partition indexes enrolled in the decision",
        },
    },
    "partition_recovered": {
        "category": "dist",
        "fields": {
            "partition": "the partition that ran recovery and rejoined",
            "in_doubt": "in-doubt branches found by recovery",
            "resolved_commit": "branches resolved to commit from the "
            "coordinator's decision log",
            "resolved_abort": "branches resolved to abort (durable abort "
            "decision or presumed abort)",
        },
    },
    "partition_suspected": {
        "category": "dist",
        "fields": {
            "partition": "the partition the failure detector now "
            "suspects (treated as down for routing, still pinged)",
            "missed": "consecutive heartbeats missed when suspicion "
            "was declared",
        },
    },
    "partition_readmitted": {
        "category": "dist",
        "fields": {
            "partition": "the partition re-admitted to routing",
            "via": "what produced the evidence: heartbeat (a suspect "
            "answered again) | recovery (recover_partition completed)",
        },
    },
    # ------------------------------------------------------------- net
    "net_retry": {
        "category": "net",
        "fields": {
            "kind": "message kind being retransmitted (op | prepare | "
            "decide | commit | probe | ping)",
            "partition": "destination partition",
            "attempt": "transmission attempts made so far",
            "backoff": "logical-clock ticks slept before the "
            "retransmission",
        },
    },
    "net_gave_up": {
        "category": "net",
        "fields": {
            "kind": "message kind whose retry budget ran out",
            "partition": "destination partition",
            "attempts": "total transmission attempts, all timed out",
        },
    },
    # -------------------------------------------------------- analysis
    "static_check": {
        "category": "analysis",
        "fields": {
            "subject": "what was analyzed (a view name or statement "
            "shape)",
            "kind": "check_view | explain | check_all",
            "errors": "error-severity diagnostics reported",
            "warnings": "warning-severity diagnostics reported",
            "notes": "info-severity diagnostics reported",
        },
    },
    # ------------------------------------------------------- integrity
    "integrity_check": {
        "category": "integrity",
        "fields": {
            "indexes": "indexes structurally checked",
            "views": "views diffed against fresh recomputation",
            "damage": "damage findings (0 = clean)",
        },
    },
    "view_quarantined": {
        "category": "integrity",
        "fields": {
            "view": "the quarantined view",
            "reason": "why (checker finding or operator-supplied)",
        },
    },
    "view_rebuilt": {
        "category": "integrity",
        "fields": {
            "view": "the rebuilt view",
            "corrections": "index entries inserted/updated/ghosted/revived "
            "to re-materialize it",
        },
    },
}

#: every category that appears in the catalogue
CATEGORIES = frozenset(spec["category"] for spec in EVENT_TYPES.values())


class Event:
    """One traced engine event. Immutable by convention."""

    __slots__ = ("seq", "ts", "name", "category", "txn_id", "fields")

    def __init__(self, seq, ts, name, category, txn_id, fields):
        self.seq = seq
        self.ts = ts
        self.name = name
        self.category = category
        self.txn_id = txn_id
        self.fields = fields

    def __repr__(self):
        txn = f" txn={self.txn_id}" if self.txn_id is not None else ""
        return f"Event({self.seq}@{self.ts} {self.name}{txn} {self.fields!r})"

    def as_dict(self):
        """A JSON-safe dict (non-primitive field values are repr()'d)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "name": self.name,
            "category": self.category,
            "txn_id": self.txn_id,
            "fields": {k: _jsonable(v) for k, v in self.fields.items()},
        }


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)
