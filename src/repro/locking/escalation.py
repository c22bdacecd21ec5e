"""Lock escalation: trading granularity for lock-table size.

A transaction that accumulates many key locks on one index can *escalate*
to a single table-level lock (S if it has only read the index, X
otherwise), as SQL Server does around 5000 locks. Escalation is sound
only because every fine-grained user of an index also holds an intention
lock (IS/IX) on the index's table resource — the escalated S/X conflicts
with those intents, so escalation waits out (or blocks) everyone touching
individual keys.

:class:`EscalationPolicy` wraps plan acquisition for the Database:

* it takes the correct intention lock ahead of an index's key locks —
  once, remembering the strongest intent the transaction already has;
* it counts per-(transaction, index) key locks;
* past the threshold it converts the transaction's intent to a full
  table lock and *skips* further key locks that the table lock covers.

A threshold of ``None`` disables escalation (the default) — then the
policy only contributes the intention locks, i.e. plain multi-granularity
locking.
"""

from repro.locking.keyrange import table_resource
from repro.locking.modes import (
    GapMode,
    LockMode,
    RangeMode,
    covers,
    supremum,
)
from repro.obs.tracer import NULL_TRACER


def _is_read_only_mode(mode):
    """Does this (possibly range) mode only ever read?"""
    if isinstance(mode, RangeMode):
        key_ok = mode.key_mode in (LockMode.NL, LockMode.S, LockMode.U)
        gap_ok = mode.gap in (GapMode.NL, GapMode.S)
        return key_ok and gap_ok
    return mode in (LockMode.NL, LockMode.S, LockMode.U, LockMode.IS)


class _IndexLockState:
    __slots__ = ("count", "read_only", "escalated_to", "intent")

    def __init__(self):
        self.count = 0
        self.read_only = True
        self.escalated_to = None  # None | LockMode.S | LockMode.X
        # Strongest table intent taken so far: NL | IS | IX. Locks stay
        # until commit/abort, so what was taken is still held.
        self.intent = LockMode.NL


class EscalationPolicy:
    """Per-database escalation bookkeeping; state lives in txn scratch."""

    SCRATCH_KEY = "escalation_state"

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
        wait, or the threshold; the loop resumes at that key. May raise
        WouldWait etc., exactly like plain acquisition — callers re-run
        safely because nothing here mutates data.
        """
        states = txn.scratch.get(self.SCRATCH_KEY)
        if states is None:
            states = txn.scratch[self.SCRATCH_KEY] = {}
        # With fault sites armed every key's intent is asked for again and
        # nothing runs, so lock.deny / lock.delay see the usual requests.
        ask_again = txn.faults_armed
        index_name = state = plan_mode = read_only = None
        position, end = 0, len(plan)
        while position < end:
            resource, mode = plan[position]
            position += 1
            if resource[0] != "key" and resource[0] != "eof":
                txn.acquire(resource, mode)
                continue
            if resource[1] != index_name:
                index_name = resource[1]
                state = states.get(index_name)
                if state is None:
                    state = states[index_name] = _IndexLockState()
            if mode is not plan_mode:  # a scan's keys share one mode
                plan_mode = mode
                read_only = _is_read_only_mode(mode)
            if state.escalated_to is not None:
                # Already escalated: does the table lock cover this mode?
                if state.escalated_to is LockMode.X or read_only:
                    continue
                # Held table S but now writing: escalate the escalation.
                txn.acquire(table_resource(index_name), LockMode.X)
                state.escalated_to = LockMode.X
                state.read_only = False
                if self.tracer.enabled:
                    self.tracer.emit(
                        "lock_escalate", txn_id=txn.txn_id, index=index_name,
                        mode=LockMode.X, key_locks=state.count,
                    )
                continue
            intent = LockMode.IS if read_only else LockMode.IX
            if ask_again or not covers(state.intent, intent):
                txn.acquire(table_resource(index_name), intent)
                state.intent = supremum(state.intent, intent)
            if (
                self.threshold is not None
                and state.count + 1 > self.threshold
            ):
                needed_table_mode = (
                    LockMode.S if (read_only and state.read_only)
                    else LockMode.X
                )
                txn.acquire(table_resource(index_name), needed_table_mode)
                state.escalated_to = needed_table_mode
                state.read_only = state.read_only and read_only
                self.escalations += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "lock_escalate", txn_id=txn.txn_id, index=index_name,
                        mode=needed_table_mode, key_locks=state.count,
                    )
                continue
            txn.acquire(resource, mode)
            state.count += 1
            state.read_only = state.read_only and read_only
            if ask_again or position == end:
                continue
            stop = position
            while stop < end:
                resource, next_mode = plan[stop]
                if (
                    (next_mode is not mode and next_mode != mode)
                    or (resource[0] != "key" and resource[0] != "eof")
                    or resource[1] != index_name
                ):
                    break
                stop += 1
            if self.threshold is not None:
                stop = min(stop, position + self.threshold - state.count)
            if stop > position:
                taken = txn.acquire_run(
                    [key for key, _ in plan[position:stop]], mode
                )
                state.count += taken
                position += taken
