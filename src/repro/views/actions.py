"""Maintenance actions: the lock-first / mutate-second contract.

Every row change a statement makes is compiled into a list of
:class:`Action` objects: one for the base-table change plus the view
actions its write plan compiles (``docs/ARCHITECTURE.md`` §2). The DML
executor then runs two phases::

    db.acquire_plan(txn, <every action's lock plan, in order>)  # phase A
    for action in actions: action.apply(db, txn)               # phase B

Phase A may raise :class:`~repro.txn.transaction.WouldWait`; the simulator
parks the transaction and *re-runs the whole statement*, which recompiles
the actions against the (possibly changed) current state. Because phase A
never mutates anything, re-running is always safe; because the simulator
executes a statement run atomically (no other transaction progresses
between phase A's last grant and phase B), the state phase B sees is the
state the actions were compiled against.

Locks already held from a previous run are simply re-confirmed (the lock
manager treats covered re-requests as no-ops) and retained until commit —
strict two-phase locking.
"""

from collections import namedtuple


class Action:
    """A lock plan plus a mutation closure. ``description`` is a string,
    or ``(verb, name, key)`` — rendered ``"verb name(key)"`` only when
    something reads it (a trace event, a repr)."""

    __slots__ = ("_description", "lock_plan", "_apply")

    def __init__(self, description, lock_plan, apply_fn):
        self._description = description
        self.lock_plan = lock_plan
        self._apply = apply_fn

    @property
    def description(self):
        what = self._description
        if isinstance(what, tuple):
            verb, name, key = what
            return f"{verb} {name}{key!r}"
        return what

    def __repr__(self):
        return f"Action({self.description!r}, {len(self.lock_plan)} locks)"

    def apply(self, db, txn):
        self._apply(db, txn)


#: One view of a table's write plan: the ``view``, the ``table`` whose
#: changes reach it, its ``locks`` — per statement op (``insert``,
#: ``update``, ``delete``), the :class:`~repro.locking.keyrange.LockEntry`
#: list one row change takes, in order — the per-row ``compile(db, txn,
#: view, table, before, after, net)`` (or ``None``) and, when it
#: ``folds``, how a change's counter deltas join ``net``, the
#: statement's NetDelta: ``fold(before, after, net)``, or in ``compile``
#: (a join-aggregate reads to fold).
Binding = namedtuple(
    "Binding", "view table locks compile fold folds",
    defaults=(None, None, False),
)


def same_locks(*entries):
    """``Binding.locks`` for a view whose row changes take ``entries``
    whatever the statement op."""
    return dict.fromkeys(("insert", "update", "delete"), entries)


def run_actions(db, txn, actions):
    """Acquire every plan, then apply every mutation — in order."""
    tracer = db.tracer
    if tracer.enabled:
        tracer.emit(
            "view_action_compile",
            txn_id=txn.txn_id,
            statement=actions[0].description if actions else "",
            actions=len(actions),
            locks=sum(len(a.lock_plan) for a in actions),
        )
    db.acquire_plan(
        txn, [step for action in actions for step in action.lock_plan]
    )
    faults = db.faults
    check_faults = faults.active
    for i, action in enumerate(actions):
        if check_faults and i:
            # Crash between a statement's actions: the base change landed
            # but a view maintenance action did not. Recovery must bring
            # the views back in sync (or roll the loser back entirely).
            faults.maybe_crash("view.midapply", txn_id=txn.txn_id)
        action.apply(db, txn)
        if tracer.enabled:
            tracer.emit(
                "view_action_apply", txn_id=txn.txn_id,
                action=action.description,
            )
    txn.stats.actions += len(actions)
