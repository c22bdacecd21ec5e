"""Transaction objects and the lock-acquisition policies.

A :class:`Transaction` is a handle: its state machine, its lock policy,
the records it touched (for version stamping at commit), and the escrow
accounts it reserved against. The heavy lifting — commit, abort, rollback
— lives in :class:`~repro.txn.manager.TransactionManager`.

Lock policies decide what happens when a lock request must wait:

* ``NOWAIT`` — cancel and raise :class:`LockTimeoutError`. Used by direct
  (non-simulated) callers, where a wait could never end, and by system
  transactions like the ghost cleaner that prefer to skip contested work.
* ``COOPERATIVE`` — raise :class:`WouldWait` carrying the queued request.
  The discrete-event scheduler catches it, parks the transaction, and
  re-runs the interrupted operation once the lock is granted. Operations
  are written lock-first/mutate-second, so re-running is safe.
"""

import enum

from repro.common import LockTimeoutError, TransactionStateError, WouldWait
from repro.locking.manager import RequestStatus
from repro.locking.modes import covers


class LockPolicy(enum.Enum):
    NOWAIT = "nowait"
    COOPERATIVE = "cooperative"


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


__all__ = ["LockPolicy", "Transaction", "TxnState", "WouldWait"]


class Transaction:
    """One unit of atomicity. Created by the TransactionManager."""

    __slots__ = (
        "txn_id",
        "state",
        "is_system",
        "policy",
        "isolation",
        "read_ts",
        "begin_ts",
        "commit_ts",
        "touched_records",
        "scratch",
        "stats",
        "commit_ticket",
        "_lock_manager",
        "held",
    )

    def __init__(self, txn_id, lock_manager, policy=LockPolicy.NOWAIT, read_ts=0,
                 is_system=False, isolation="serializable"):
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self.is_system = is_system
        self.policy = policy
        self.isolation = isolation
        self.read_ts = read_ts
        self.begin_ts = read_ts  # overwritten by the manager's clock
        self.commit_ts = None
        self.touched_records = []  # VersionedRecords to fold and stamp
        self.scratch = {}  # per-txn scratch space (commit-time delta folding)
        self.stats = TxnStats()
        self.commit_ticket = None  # CommitTicket once enrolled (group commit)
        self._lock_manager = lock_manager
        #: The lock manager's own held-lock table for this transaction
        #: ({resource: mode}): the manager writes it on every grant,
        #: conversion and release; everyone else only reads it.
        self.held = lock_manager.held_locks(txn_id)

    def __repr__(self):
        return f"Transaction({self.txn_id}, {self.state.value})"

    # ------------------------------------------------------------------

    def require_active(self):
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )

    def acquire(self, resource, mode):
        """Take a lock, honouring this transaction's policy on waits.

        A request the held-lock table already covers is answered here.
        Strict two-phase locking makes that sound: nothing leaves the
        table before ``release_all`` at commit/abort, and a conversion
        granted from a queue lands in the same table.
        """
        self.require_active()
        locks = self._lock_manager
        held = self.held.get(resource)
        if held is not None and covers(held, mode):
            locks.stats.covered += 1
            return
        request = locks.request(self.txn_id, resource, mode)
        if request.status is RequestStatus.GRANTED:
            return
        if request.status is RequestStatus.DENIED:
            self.stats.deadlocks += 1
            raise request.deny_error
        # WAITING
        self.stats.lock_waits += 1
        if self.policy is LockPolicy.COOPERATIVE:
            raise WouldWait(request)
        locks.cancel_wait(self.txn_id)
        raise LockTimeoutError(self.txn_id, resource)

    def acquire_run(self, resources, mode):
        """Take ``mode`` on the longest prefix of ``resources`` that needs
        no wait (``LockManager.grant_run``) and return its length; the
        resource past it is the caller's to :meth:`acquire`."""
        self.require_active()
        return self._lock_manager.grant_run(self.txn_id, resources, mode)

    def holds(self, resource):
        """The mode this transaction holds on ``resource``, or ``None``."""
        return self.held.get(resource)

    # ------------------------------------------------------------------

    def touch_record(self, record):
        """Remember ``record`` for the commit (escrow fold, version stamp)
        and abort (escrow discard)."""
        self.touched_records.append(record)


class TxnStats:
    """Per-transaction counters reported to the harness."""

    __slots__ = (
        "lock_waits",
        "deadlocks",
        "reads",
        "writes",
        "view_maintenances",
        "actions",
        "log_bytes",
    )

    def __init__(self):
        self.lock_waits = 0
        self.deadlocks = 0
        self.reads = 0
        self.writes = 0
        self.view_maintenances = 0
        self.actions = 0  # statement actions executed (base + views)
        self.log_bytes = 0  # filled in at commit/abort from the WAL

    def as_dict(self):
        return {
            "lock_waits": self.lock_waits,
            "deadlocks": self.deadlocks,
            "reads": self.reads,
            "writes": self.writes,
            "view_maintenances": self.view_maintenances,
            "actions": self.actions,
            "log_bytes": self.log_bytes,
        }
