"""Transaction lifecycle: begin, commit, abort, system transactions.

Commit protocol (WAL rule enforced here):

1. append COMMIT record; without group commit, flush the log — the
   transaction is now durable;
2. fold escrow deltas into their rows and stamp MVCC versions (via the
   registered commit listener — the Database);
3. release all locks. COMMIT is the transaction's last record.

The log carries only what recovery reads (``docs/ARCHITECTURE.md`` §7):
``begin`` appends nothing — a transaction's first record opens it — and
a *silent* transaction, one that has appended no record by its end,
skips step 1 (and abort steps 1–2) altogether.

With group commit enabled the flush in step 1 is skipped: the commit
point is the COMMIT-record *append* (early lock release — steps 2–3 run
immediately), and the transaction then enrolls on the open commit group.
It is *commit-visible* from here but *durable* only once the group's
batched flush covers its COMMIT record; ``Database.ensure_durable``
blocks on that. If the group flush fails before durability the whole
group is retracted (rolled back, retryable) or, when other transactions
already depend on the group's writes in ways rollback cannot reach, the
failure escalates to a simulated crash. A silent transaction that
commits while a group is pending may have read a member's writes, so it
enrolls too — at the newest pending COMMIT, appending nothing; with no
member pending it takes no ticket.

Abort protocol (online rollback):

1. append ABORT;
2. walk the transaction's log backchain newest-first (the walker crash
   recovery uses, :func:`repro.wal.recovery.undo`); for every undoable
   record write a CLR and apply the undo as of it — *except* escrow
   deltas, whose pending amounts never reached the row: their CLRs are
   logged (so crash recovery, which replays deltas, compensates them) and
   the delta is unreserved, but no row change is applied online; END —
   written only here, after a rollback — closes the chain;
3. discard pending escrow deltas, release locks.

System transactions (:meth:`TransactionManager.begin_system`) are nested
top-level actions: they get their own id and commit independently of the
user transaction that spawned them, exactly like B-tree structure
modifications and ghost cleanup in SQL Server. Their commits survive a
rollback of the surrounding user transaction.
"""

from repro.common import FaultInjected, SimulatedCrash, TransactionStateError
from repro.txn.transaction import LockPolicy, Transaction, TxnState
from repro.wal.records import (
    AbortRecord,
    CommitRecord,
    CounterImageRecord,
    EscrowDeltaRecord,
)
from repro.wal.recovery import undo


class TransactionManager:
    """Creates transactions and drives their completion."""

    def __init__(self, clock, log, lock_manager, escrow_registry, snapshots,
                 undo_target, commit_listener, group_commit,
                 tracer, metrics, faults, next_txn_id):
        self._clock = clock
        self._log = log
        self.faults = faults
        self._locks = lock_manager
        self._escrow = escrow_registry
        self._snapshots = snapshots
        self._undo_target = undo_target  # RecoveryTarget: the Database
        #: ``commit_listener(txn, commit_ts)`` folds escrow deltas into
        #: rows and stamps versions at the commit point (the Database).
        self.commit_listener = commit_listener
        self.group_commit = group_commit  # GroupCommitCoordinator
        self._next_txn_id = next_txn_id
        self._active = {}
        self.committed_count = 0
        self.aborted_count = 0
        self.tracer = tracer
        self.metrics = metrics  # EngineMetrics

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def begin(self, policy=LockPolicy.NOWAIT, is_system=False,
              isolation="serializable"):
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        read_ts = self._snapshots.open(txn_id)
        txn = Transaction(
            txn_id,
            self._locks,
            policy=policy,
            read_ts=read_ts,
            is_system=is_system,
            isolation=isolation,
        )
        txn.begin_ts = self._clock.now()
        self._active[txn_id] = txn
        if self.tracer.enabled:
            self.tracer.emit(
                "txn_begin", txn_id=txn_id, isolation=isolation,
                system=is_system,
            )
        return txn

    def begin_system(self, policy=LockPolicy.NOWAIT):
        """A nested top-level action: own id, commits independently."""
        return self.begin(policy=policy, is_system=True)

    def commit(self, txn):
        """Make ``txn`` durable and visible; returns the commit timestamp."""
        txn.require_active()
        if self.faults.active:
            # Crash on the near side of the commit point: nothing of this
            # transaction is durable yet, so recovery must roll it back.
            self.faults.maybe_crash("txn.commit.before", txn_id=txn.txn_id,
                                    committed=False)
        commit_ts = self._clock.tick()
        txn.commit_ts = commit_ts
        log = self._log
        group = self.group_commit
        grouped = group.enabled
        if log.last_lsn_of(txn.txn_id) is None:
            # Silent: nothing to make durable — but it may have read a
            # pending member's writes (early lock release): ride its group.
            commit_lsn = group.pending_lsn() if grouped else None
        else:
            commit_lsn = log.append(CommitRecord(txn.txn_id, commit_ts))
            if not grouped:
                self._flush_commit(txn)
        self.commit_listener(txn, commit_ts)
        txn.state = TxnState.COMMITTED
        self._locks.release_all(txn.txn_id)
        self._snapshots.close(txn.txn_id)
        del self._active[txn.txn_id]
        self.committed_count += 1
        txn.stats.log_bytes = log.forget(txn.txn_id)
        latency = commit_ts - txn.begin_ts
        self.metrics.observe_commit(
            latency, txn.stats.log_bytes, txn.stats.actions
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "txn_commit", txn_id=txn.txn_id, commit_ts=commit_ts,
                latency=latency, log_bytes=txn.stats.log_bytes,
                actions=txn.stats.actions,
            )
        if grouped and commit_lsn is not None:
            # Enroll only after the active-table entry is gone: the
            # retraction guard ("nothing but group members in the
            # unflushed suffix, no active transactions") must see this
            # transaction as fully quiesced. Under the size policy this
            # enrolment may flush the group inline — which may retract
            # it, including this very transaction.
            ticket = group.enroll(txn, commit_lsn)
            if ticket.state == ticket.RETRACTED:
                raise FaultInjected(
                    ticket.reason or "wal.group_flush", txn.txn_id
                )
        return commit_ts

    def _flush_commit(self, txn):
        """The ungrouped commit point: force the COMMIT record out."""
        try:
            self._log.flush()
        except FaultInjected as fault:
            # The COMMIT record is in the append stream but the flush
            # failed. Online abort is unsound from here: if any prefix
            # containing the COMMIT record later becomes durable,
            # recovery declares the transaction a winner, so
            # compensating it online would corrupt the redo history.
            # Real engines halt on a log-device failure at the commit
            # point; we escalate to a simulated crash the harness must
            # recover from. (Group commit recovers less drastically:
            # it retracts the group via a bounded log truncation when
            # nothing outside the group is in the unflushed suffix.)
            raise SimulatedCrash(fault.site, committed=False) from fault
        if self.faults.active:
            # Crash on the far side: COMMIT is flushed, so recovery
            # must replay the transaction's effects (durability
            # oracle). With grouping on, the coordinator evaluates
            # this site after the batched flush instead.
            self.faults.maybe_crash("txn.commit.after",
                                    txn_id=txn.txn_id, committed=True)

    def abort(self, txn, reason="user"):
        """Roll ``txn`` back completely."""
        if txn.state is TxnState.ABORTED:
            return  # idempotent: deadlock victims may be aborted by the
            # scheduler after the lock manager already denied them
        if txn.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"cannot abort transaction {txn.txn_id} in state {txn.state.value}"
            )
        self._locks.cancel_wait(txn.txn_id)
        if self._log.last_lsn_of(txn.txn_id) is not None:
            self._log.append(AbortRecord(txn.txn_id))
            self._rollback(txn)  # CLRs, then END
        for account in txn.escrow_touched.values():
            account.abort(txn.txn_id)
        txn.state = TxnState.ABORTED
        self._locks.release_all(txn.txn_id)
        self._snapshots.close(txn.txn_id)
        del self._active[txn.txn_id]
        self.aborted_count += 1
        txn.stats.log_bytes = self._log.forget(txn.txn_id)
        if self.tracer.enabled:
            self.tracer.emit("txn_abort", txn_id=txn.txn_id, reason=reason)

    def _rollback(self, txn, stop_after_lsn=None):
        """Online rollback through the one backchain walker
        (:func:`repro.wal.recovery.undo`), down to ``stop_after_lsn`` for
        a savepoint. Row changes are undone in place under the
        transaction's own locks; the counter records are not, because
        their row change waits for commit: an escrow delta is unreserved,
        and the physically logged ablation variant is reconciled when the
        account aborts."""
        def apply(record, lsn):
            if isinstance(record, EscrowDeltaRecord):
                for column, delta in record.deltas.items():
                    account = txn.escrow_touched.get(
                        (record.index_name, record.key, column)
                    )
                    if account is not None:
                        account.unreserve(txn.txn_id, delta)
            if isinstance(record, (EscrowDeltaRecord, CounterImageRecord)):
                # no row change, but the pending deltas the row's image
                # holds move: stamp it as of the CLR
                self._undo_target.stamp(record.index_name, record.key, lsn)
            else:
                record.undo(self._undo_target, lsn)

        undo(
            self._log, self._undo_target,
            {txn.txn_id: self._log.last_lsn_of(txn.txn_id)},
            apply=apply, stop_after_lsn=stop_after_lsn,
        )

    # ------------------------------------------------------------------
    # savepoints
    # ------------------------------------------------------------------

    def savepoint(self, txn):
        """Mark the current point in ``txn``; returns an opaque token for
        :meth:`rollback_to`."""
        txn.require_active()
        return _Savepoint(txn.txn_id, self._log.last_lsn_of(txn.txn_id) or 0)

    def rollback_to(self, txn, savepoint):
        """Undo everything ``txn`` did after ``savepoint``, leaving the
        transaction active (its locks are retained, as in every real
        system — releasing them could let conflicting work slip into the
        middle of the retained prefix)."""
        txn.require_active()
        if savepoint.txn_id != txn.txn_id:
            raise TransactionStateError(
                f"savepoint belongs to transaction {savepoint.txn_id}, "
                f"not {txn.txn_id}"
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "txn_rollback", txn_id=txn.txn_id, to_lsn=savepoint.lsn
            )
        self._rollback(txn, stop_after_lsn=savepoint.lsn)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def active_transactions(self):
        return list(self._active.values())

    def active_txn_table(self):
        """txn_id -> last LSN, as a checkpoint wants it: a transaction
        that has logged nothing leaves recovery nothing to find."""
        heads = ((t, self._log.last_lsn_of(t)) for t in self._active)
        return {txn_id: lsn for txn_id, lsn in heads if lsn is not None}


class _Savepoint:
    """An opaque marker: the transaction's last LSN at creation time (0
    before its first record)."""

    __slots__ = ("txn_id", "lsn")

    def __init__(self, txn_id, lsn):
        self.txn_id = txn_id
        self.lsn = lsn

    def __repr__(self):
        return f"Savepoint(txn={self.txn_id}, lsn={self.lsn})"
