"""Lock escalation: trading granularity for lock-table size.

A transaction that accumulates many key locks on one index can *escalate*
to a single table-level lock (S if it has only read the index, X
otherwise), as SQL Server does around 5000 locks. Escalation is sound
only because every fine-grained user of an index also holds an intention
lock (IS/IX) on the index's table resource — the escalated S/X conflicts
with those intents, so escalation waits out (or blocks) everyone touching
individual keys.

:class:`EscalationPolicy` wraps plan acquisition for the Database. What
the transaction holds on an index's table resource is read from its
held-lock table (:meth:`~repro.locking.manager.LockManager.held_locks`),
the one record of it:

* an intention lock (IS/IX) the table mode covers is not asked again;
* a table mode covering the key's (S for a read, X for a write) takes
  the key lock's place — an escalated lock, or one taken outside the
  policy (an online build's ``lock_step``);
* IX or stronger on the table means the index was written, so an
  escalation takes X; otherwise S.

Only with a threshold set does the policy keep state of its own: a
per-(transaction, index) count of key-lock acquisitions. The key that
finds the count at the threshold escalates, and a count past it is
what "escalated" means. A threshold of ``None`` disables escalation
(the default) — then the policy only contributes the intention locks,
i.e. plain multi-granularity locking.
"""

from repro.locking.keyrange import table_resource
from repro.locking.modes import GapMode, LockMode, RangeMode, covers
from repro.obs.tracer import NULL_TRACER


def _is_read_only_mode(mode):
    """Does this (possibly range) mode only ever read?"""
    if isinstance(mode, RangeMode):
        key_ok = mode.key_mode in (LockMode.NL, LockMode.S, LockMode.U)
        gap_ok = mode.gap in (GapMode.NL, GapMode.S)
        return key_ok and gap_ok
    return mode in (LockMode.NL, LockMode.S, LockMode.U, LockMode.IS)


class EscalationPolicy:
    """Per-database escalation policy; its counts live in txn scratch."""

    SCRATCH_KEY = "escalation_counts"

    def __init__(self, threshold=None, tracer=NULL_TRACER):
        self.threshold = threshold
        self.escalations = 0
        self.tracer = tracer

    # ------------------------------------------------------------------

    def acquire_plan(self, txn, plan):
        """Acquire a lock plan with intention locks and escalation.

        ``plan`` is a list of ``(resource, mode)`` pairs as produced by
        :mod:`repro.locking.keyrange`. Table-level resources pass through
        unchanged. The keys that follow a key on its index in its mode
        (a scan's) go in one ``txn.acquire_run`` up to the first that must
        wait or convert, or the threshold; the loop resumes at that key,
        and the rest of that run goes key by key (all of it while fault
        sites are armed: ``grant_run`` then grants nothing). May raise
        WouldWait etc., exactly like plain acquisition — callers re-run
        safely because nothing here mutates data.
        """
        held = txn.held
        threshold = self.threshold
        counts = None
        if threshold is not None:
            counts = txn.scratch.get(self.SCRATCH_KEY)
            if counts is None:
                counts = txn.scratch[self.SCRATCH_KEY] = {}
        index_name = table = plan_mode = None
        position, end = 0, len(plan)
        run_end = 0  # where the run last tried ends
        while position < end:
            resource, mode = plan[position]
            position += 1
            if resource[0] != "key" and resource[0] != "eof":
                txn.acquire(resource, mode)
                continue
            if resource[1] != index_name:
                index_name = resource[1]
                table = table_resource(index_name)
            if mode is not plan_mode:  # a scan's keys share one mode
                plan_mode = mode
                if _is_read_only_mode(mode):
                    intent, whole = LockMode.IS, LockMode.S
                else:
                    intent, whole = LockMode.IX, LockMode.X
            if counts is not None:
                count = counts.get(index_name, 0)
                if count >= threshold:
                    self._escalated(txn, table, index_name, count, intent,
                                    whole, counts)
                    continue
            table_mode = held.get(table)
            if table_mode is not intent:  # held intent answers both tests
                if table_mode is None:
                    txn.acquire(table, intent)
                elif covers(table_mode, whole):
                    continue  # the table lock covers the key
                elif not covers(table_mode, intent):
                    txn.acquire(table, intent)
            txn.acquire(resource, mode)
            if counts is not None:
                count = counts[index_name] = count + 1
            if position == end or position < run_end:
                continue  # the rest of a run tried once goes key by key
            run_end = position
            while run_end < end:
                resource, next_mode = plan[run_end]
                if (
                    (next_mode is not mode and next_mode != mode)
                    or (resource[0] != "key" and resource[0] != "eof")
                    or resource[1] != index_name
                ):
                    break
                run_end += 1
            stop = run_end
            if counts is not None:
                stop = min(stop, position + threshold - count)
            if stop > position:
                taken = txn.acquire_run(
                    [key for key, _ in plan[position:stop]], mode
                )
                if counts is not None:
                    counts[index_name] = count + taken
                position += taken

    def _escalated(self, txn, table, index_name, count, intent, whole,
                   counts):
        """A key on an index whose key-lock ``count`` reached the
        threshold: escalate to a table lock (at the threshold), or, past
        it, upgrade an escalated S the key's ``whole`` mode needs more
        than."""
        table_mode = txn.held.get(table)
        if count > self.threshold:
            if covers(table_mode, whole):
                return
            txn.acquire(table, LockMode.X)  # held table S, now writing
            mode = LockMode.X
        else:
            if table_mode is None or not covers(table_mode, intent):
                txn.acquire(table, intent)
                table_mode = txn.held[table]
            mode = LockMode.X if covers(table_mode, LockMode.IX) else LockMode.S
            txn.acquire(table, mode)
            counts[index_name] = count + 1
            self.escalations += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "lock_escalate", txn_id=txn.txn_id, index=index_name,
                mode=mode, key_locks=self.threshold,
            )
