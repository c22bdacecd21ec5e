"""The two-phase-commit participant side of one engine.

A branch votes with :meth:`Participant.prepare` and stays an ordinary
active transaction, locks held, until the decision reaches its live
handle. A crash severs it from the handle: recovery repeats its history
and lists it *in doubt* (:meth:`Participant.register`), holding X on the
keys it touched, until :meth:`Participant.resolve_in_doubt`. The
checkpoint and the recycle floor read the registry through
:meth:`Participant.checkpoint_entries` / :meth:`Participant.first_lsns`.
"""

from repro.common import TransactionStateError
from repro.locking import LockMode
from repro.locking.keyrange import key_resource, table_resource
from repro.wal.records import AbortRecord, CommitRecord, PrepareRecord
from repro.wal.recovery import undo


class Participant:
    """Prepare, and the post-recovery in-doubt registry."""

    def __init__(self, db):
        self._db = db
        #: txn_id -> {"gid", "first_lsn", "last_lsn", "resources"} for
        #: prepared branches recovery found undecided. Live prepared
        #: branches are *not* here — they are ordinary active
        #: transactions until a crash severs them from their handle.
        self._in_doubt = {}

    def prepare(self, txn, gid):
        """Phase 1 of two-phase commit: vote yes on this branch of global
        transaction ``gid``.

        Applies any commit-folded view deltas (they must be locked and
        logged before the vote — nothing may fail after it), appends a
        durable :class:`~repro.wal.records.PrepareRecord`, marks the
        branch prepared (``txn.scratch["2pc_gid"]``, the one record of a
        yes vote the partition endpoint reads), and leaves the
        transaction ACTIVE with every lock held. A flush failure here is
        a retryable fault: the vote never became durable, so it is a no.
        """
        db = self._db
        txn.require_active()
        db._apply_commit_folds(txn)
        db.log.append(PrepareRecord(txn.txn_id, gid))
        # The prepare promise is per-branch and unconditional: it cannot
        # wait for a commit group that the decision itself will ride.
        db.log.flush()
        txn.scratch["2pc_gid"] = gid
        db.counters.incr("dist.prepares")
        return txn

    def in_doubt_transactions(self):
        """``txn_id -> gid`` for every prepared branch recovery found
        undecided. Empty on a healthy engine."""
        return {
            txn_id: info["gid"] for txn_id, info in self._in_doubt.items()
        }

    def checkpoint_entries(self):
        """``txn_id -> last LSN`` of every in-doubt branch: a checkpoint
        taken while one awaits its decision must not let the next
        recovery forget it."""
        return {
            txn_id: info["last_lsn"] for txn_id, info in self._in_doubt.items()
        }

    def first_lsns(self):
        """The first LSN of every in-doubt branch: the log must keep its
        records, PREPARE included, until the branch resolves."""
        return [
            info["first_lsn"] for info in self._in_doubt.values()
            if info["first_lsn"] is not None
        ]

    def resolve_in_doubt(self, txn_id, decision):
        """Finish a recovered in-doubt branch per the coordinator's
        ``decision`` (``"commit"`` or ``"abort"`` — an undecided gid is
        resolved ``"abort"``, the presumed-abort rule).

        Recovery already repeated the branch's history (its escrow deltas
        and row images are in the recovered state), so commit is pure
        bookkeeping: log COMMIT durably and release the locks.
        Abort physically reverses the branch record-by-record through
        CLRs — unlike online rollback, the deltas *are* on the rows here.
        """
        db = self._db
        if txn_id not in self._in_doubt:
            raise TransactionStateError(
                f"transaction {txn_id} is not in doubt"
            )
        if decision not in ("commit", "abort"):
            raise TransactionStateError(
                f"unknown 2PC decision {decision!r} for transaction {txn_id}"
            )
        info = self._in_doubt.pop(txn_id)
        if decision == "commit":
            db.log.append(CommitRecord(txn_id, db.clock.tick()))
            db.log.flush_no_faults()
            db._txns.committed_count += 1
            db.counters.incr("dist.in_doubt_committed")
        else:
            db.log.append(AbortRecord(txn_id))
            undo(db.log, db.indexes, {txn_id: info["last_lsn"]})
            db.log.flush_no_faults()
            # Re-stamp the reverted rows: recovery's baseline versions
            # carried the in-doubt deltas (prepared = commit-visible), so
            # committed readers need a fresh version without them.
            ts = db.clock.tick()
            for index_name, key in info["resources"]:
                record = db.indexes.record(index_name, key)
                if record is not None:
                    record.stamp_version(ts)
            db._txns.aborted_count += 1
            db.counters.incr("dist.in_doubt_aborted")
        db.locks.release_all(txn_id)
        db.log.forget(txn_id)
        return decision

    def register(self, in_doubt):
        """Rebuild the registry from recovery's verdict and re-acquire
        each branch's locks on the fresh lock manager.

        Their effects are in the recovered state; what keeps that sound
        is that the rows they touched are blocked — IX on each touched
        index, X on each touched key — until :meth:`resolve_in_doubt`.
        Runs before transactions restart: every request is granted."""
        db = self._db
        self._in_doubt = {}
        for txn_id in sorted(in_doubt):
            last_lsn = db.log.last_lsn_of(txn_id)
            gid = None
            first_lsn = last_lsn
            resources = set()
            lsn = last_lsn
            while lsn is not None:
                record = db.log.record_at(lsn)
                first_lsn = record.lsn
                if isinstance(record, PrepareRecord):
                    gid = record.gid
                index_name = getattr(record, "index_name", None)
                if index_name is not None:
                    resources.add((index_name, tuple(record.key)))
                lsn = record.prev_lsn
            resources = sorted(resources, key=repr)
            self._in_doubt[txn_id] = {
                "gid": gid,
                "first_lsn": first_lsn,
                "last_lsn": last_lsn,
                "resources": resources,
            }
            for index_name, key in resources:
                db.locks.request(
                    txn_id, table_resource(index_name), LockMode.IX
                )
                db.locks.request(
                    txn_id, key_resource(index_name, key), LockMode.X
                )
