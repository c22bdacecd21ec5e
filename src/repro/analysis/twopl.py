"""The two-phase-locking sanitizer.

Invariants checked over the lock/wal/txn event stream:

* **2PL**: once a transaction has released any lock it never acquires,
  is granted, or waits for another one (the engine releases everything
  at once via ``release_all``, so the first ``lock_release`` marks the
  start of the shrinking phase).
* **SS2PL**: a transaction that appended any log record begins its
  shrinking phase only after its COMMIT or ABORT record has been
  appended. Under group commit this is exactly the documented *early
  release* point — locks go at COMMIT-record append, not at durability —
  so the check is on the append, deliberately not on the flush. A
  transaction that appended nothing has no decision to log: it may
  release at its ``txn_commit`` / ``txn_abort``.

A stream that carries no ``wal`` events (a trace captured with
``categories=("lock",)``) shows no transaction appending anything, so
the WAL sub-condition never fires on it.
"""

from repro.analysis.base import Sanitizer


class TwoPhaseLockingSanitizer(Sanitizer):
    rule = "2pl"

    def __init__(self):
        super().__init__()
        self._released = set()  # txns past their shrinking point
        #: txn that appended a record -> its COMMIT/ABORT is among them
        self._decided = {}

    # ----------------------------------------------------------- growing
    def _growing(self, verb, txn_id, seq, fields):
        if txn_id in self._released:
            self.report(
                f"{verb} {fields.get('resource')!r} after the transaction "
                f"released its locks (2PL growing phase violated)",
                txn_id,
                seq,
            )

    def on_lock_acquire(self, txn_id, seq, fields):
        self._growing("acquired", txn_id, seq, fields)

    def on_lock_grant(self, txn_id, seq, fields):
        self._growing("was granted", txn_id, seq, fields)

    def on_lock_wait(self, txn_id, seq, fields):
        self._growing("waited for", txn_id, seq, fields)

    # --------------------------------------------------------- shrinking
    def on_lock_release(self, txn_id, seq, fields):
        if self._decided.get(txn_id) is False:
            self.report(
                "locks released before the transaction's COMMIT/ABORT "
                "record was appended (strict 2PL violated)",
                txn_id,
                seq,
            )
        self._released.add(txn_id)

    def on_wal_append(self, txn_id, seq, fields):
        if txn_id is not None:
            decision = fields.get("record") in ("CommitRecord", "AbortRecord")
            self._decided[txn_id] = decision or self._decided.get(txn_id, False)

    def notice_crash(self, flushed_lsn):
        # The lock table is volatile: whatever was held is simply gone,
        # and recovery never reacquires on behalf of dead transactions.
        self._released.clear()
        self._decided.clear()
