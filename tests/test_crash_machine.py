"""A generated crash machine over one paged engine: the one oracle.

Hypothesis drives a :class:`RuleBasedStateMachine` over a table ``t``
(aggregate view ``by_g``, its ``total`` an escrow counter bounded below
by 0) and a table ``p`` that ``t.g`` joins, on an engine small enough
that every leaf mechanism engages (order-4 trees, a 2-4 leaf dirty
table), under both aggregate strategies, every maintenance mode, with or
without a lock-wait timeout and group commit, and the protocol
sanitizers attached. Up to three sessions each hold an open
``COOPERATIVE`` transaction; every statement rule runs one statement of
one session (``s`` picks it) through the real lock manager. Rules:

* DML, in a session's transaction (all or nothing) or autocommitted:
  typed one-row ``insert`` / ``update`` (or withdraw from the amount) /
  ``delete`` on ``t`` (every value tag a row can hold), ``write_p`` on ``p``, and through
  ``Session.execute`` a multi-row ``sql_insert`` (all rows go in, or a
  repeated or present key refuses them all) and a group-moving
  ``sql_update``, with literals or ``?`` parameters, so prepared plans
  outlive DDL and crashes. An escrow bound refuses a statement; so does,
  autocommitted, a lock an open session holds.
* A statement that must wait parks its session, its request queued;
  ``resume`` re-runs it once the manager grants the request, or rolls
  the transaction back when the request was denied while parked (a
  deadlock victim, a timed-out wait). ``tick`` runs the clock to the
  next lock-wait or group-commit deadline.
* ``begin`` / ``commit`` / ``abort`` / ``take_savepoint`` /
  ``rollback_to_savepoint``; ``prepared_branch``: ``participant.prepare``
  then commit, abort, or a crash that leaves the branch in doubt (its
  rows back) until presumed abort.
* ``create``: a locked or online build over existing rows of a filtered
  projection, a MIN/MAX aggregate, a join or a join-aggregate view over
  ``t`` and ``p``, or a unique or non-unique secondary index, optionally
  crashed at a ``view.online_build`` phase (absent after ``snapshot:<n>``
  / ``flip``, complete after ``post_commit``). A reused name is refused
  with the original intact; a build over a table an open transaction
  wrote is refused and leaves no view; a view that computes empty logs
  nothing.
* ``reader`` (serializable, read-committed, scan, SELECT,
  ``Session.run``, an aborted reader) reads the committed row;
  ``open_snapshot`` / ``snapshot_read`` reads ``history`` replayed to
  the reader's start (reenactment). Neither appends, nor flushes but a
  commit group it may have read from.
* ``ghost_cleanup``, ``checkpoint``, ``refresh``,
  ``quarantine_and_rebuild``.
* ``crash_and_recover`` keeps a prefix of the store's write timeline and
  a log prefix consistent with it, with any sessions in flight,
  optionally re-entering recovery after a ``recovery.analysis`` /
  ``redo`` / ``undo`` crash; ``fault`` arms one site (``wal.append``,
  ``wal.flush``, ``wal.torn_tail``, ``wal.group_flush``, ``wal.corrupt``,
  ``lock.delay``, ``lock.deny``, ``txn.commit.before`` / ``after``,
  ``view.midapply``, ``cleanup.interrupt``) for one write or cleaner
  pass: a retryable fault rolls it back (a failed group flush retracts
  the group), a crash keeps it iff its COMMIT was durable, a corrupted
  log loses it at the next recovery; ``restore_from_segments`` restores
  a WAL dump into a schema-only engine and continues there.

Invariants after every step: each table equals the reference (the
committed rows, kept per COMMIT LSN as ``history``, under each open
transaction's own writes, which strict 2PL keeps apart); the integrity
checker finds no damage; every view equals its recomputation when its
mode promises it (``immediate``: always, ``commit_fold``: with no
transaction open, ``deferred``: once a refresh caught up); every
transaction's records, backchained, match ``(ROW|CLR)* PREPARE? COMMIT |
(ROW|CLR)* PREPARE? ABORT CLR* END`` (where recovery ended it, the ABORT
may be missing); the 2PL, WAL-rule and serializability sanitizers are
clean; escrow deltas are pending only for open transactions and the
committed counters keep their bounds; a parked session waits on open
sessions only. Every DML statement takes only locks in the footprint of
the current catalog, re-analyzed after every DDL, crash and restore.

``REPRO_MACHINE_EXAMPLES`` sets the example count (``make test`` runs
more than a bare ``pytest`` does).
"""

import os
import re
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis.static import StaticAnalyzer
from repro.common import (
    CatalogError,
    EscrowViolationError,
    FaultInjected,
    LockTimeoutError,
    SimulatedCrash,
    StorageError,
    TransactionAborted,
    WouldWait,
)
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.locking import LockMode
from repro.locking.keyrange import table_resource
from repro.locking.manager import RequestStatus
from repro.locking.modes import mode_compatible
from repro.query import AggregateSpec
from repro.sql import in_statement
from repro.txn import LockPolicy
from repro.views import AggregateView
from repro.views.definition import expected_index_contents
from repro.wal import RecordType
from tests.test_sql_access_paths import lock_triples, predicted_locks
from tests.test_wal_codec import same, values

EXAMPLES = int(os.environ.get("REPRO_MACHINE_EXAMPLES", "60"))

ids = st.integers(0, 11)
groups = st.integers(0, 3)
amounts = st.integers(-5, 20)
sql_ids = st.integers(0, 23)  # wider, so most multi-row INSERTs go in
sql_values = st.one_of(st.none(), amounts, st.text("abc", max_size=3))
#: which session a rule acts on, taken modulo the sessions it can use
#: (a statement rule autocommits on 3)
sessions = st.integers(0, 3)

KEYS = {"t": "id", "p": "pid"}
#: ``by_g.total``'s escrow bounds, outside the deferred mode (a refresh
#: must be able to write whatever the unchecked base rows sum to)
BOUNDS = {"total": (0, None)}

#: what ``run_ddl`` builds: SQL for a view, ``(table, name, columns,
#: unique)`` for a secondary index
DDL = {
    "big": "CREATE INDEXED VIEW big AS SELECT id, amount FROM t "
           "WHERE amount >= 5",
    "lohi": "CREATE INDEXED VIEW lohi AS SELECT g, COUNT(*) AS n, "
            "MIN(amount) AS lo, MAX(amount) AS hi FROM t GROUP BY g",
    "tj": "CREATE UNIQUE INDEXED VIEW tj AS SELECT id, pid, amount, cat "
          "FROM t JOIN p ON t.g = p.pid",
    "tja": "CREATE INDEXED VIEW tja AS SELECT cat, COUNT(*) AS n, "
           "SUM(amount) AS s FROM t JOIN p ON t.g = p.pid GROUP BY cat",
    "t#by_g": ("t", "by_g", ("g",), False),
    "t#by_amount": ("t", "by_amount", ("amount", "id"), True),
}

FAULT_SITES = (
    "wal.append", "wal.flush", "wal.torn_tail", "wal.group_flush",
    "wal.corrupt", "lock.delay", "lock.deny", "txn.commit.before",
    "txn.commit.after", "view.midapply", "cleanup.interrupt",
)

#: one letter per record, by the role it plays in the envelope grammar
LETTER = {
    RecordType.CLR: "C", RecordType.PREPARE: "P", RecordType.COMMIT: "K",
    RecordType.ABORT: "A", RecordType.END: "E",
}
GRAMMAR = re.compile(r"[RC]*P?K|[RC]*P?AC*E")
#: a loser that recovery rolled back never logged its own ABORT
RECOVERED = re.compile(r"[RC]*P?K|[RC]*P?A?C*E")
OPEN = re.compile(r"[RC]*")


def literal(value):
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else str(value)


def run_ddl(db, name, online=False):
    ddl = DDL[name]
    if isinstance(ddl, str):
        return db.create_view(ddl, online=online)
    return db.create_secondary_index(*ddl)


def copied(tables):
    return {table: dict(rows) for table, rows in tables.items()}


def overlay(rows, writes):
    """``rows`` under ``writes`` (key -> row, or ``None``: deleted)."""
    return {
        key: row for key, row in {**rows, **writes}.items() if row is not None
    }


def aborted_read(db, key):
    txn = db.begin()
    try:
        return db.read(txn, "t", (key,))
    finally:
        db.abort(txn)
        assert txn.stats.log_bytes == 0


#: a transaction that reads row ``key`` of ``t`` and changes nothing
READS = {
    "serializable": lambda db, key: db.session().read("t", (key,)),
    "read_committed": lambda db, key: db.session(
        isolation="read_committed"
    ).read("t", (key,)),
    "scan": lambda db, key: next(
        (row for row in db.session().scan("t") if row["id"] == key), None
    ),
    "select": lambda db, key: next(
        iter(db.execute(f"SELECT * FROM t WHERE id = {key}")), None
    ),
    "run": lambda db, key: db.session().run(lambda s: s.read("t", (key,))),
    "aborted": aborted_read,
}


class Slot:
    """One session: a cooperative ``Session``, its open transaction, its
    writes over the committed rows (table -> key -> row, ``None`` for a
    deleted one), its savepoint, and what it is parked on — the queued
    lock request and the statement to re-run once it is granted."""

    def __init__(self, session):
        self.session = session
        self.txn = self.savepoint = self.parked = None
        self.writes = {table: {} for table in KEYS}


def runnable(slot):
    return slot.parked is None


def in_txn(slot):
    return slot.txn is not None and slot.parked is None


def idle(slot):
    return slot.txn is None


def resolved(slot):
    return (slot.parked is not None
            and slot.parked[0].status is not RequestStatus.WAITING)


def any_slot(fits):
    return lambda self: any(map(fits, self.slots))


class CrashMachine(RuleBasedStateMachine):
    @initialize(
        strategy=st.sampled_from(["escrow", "escrow", "xlock"]),
        frames=st.integers(2, 4),
        mode=st.sampled_from(
            ["immediate", "immediate", "commit_fold", "deferred"]
        ),
        timeout=st.sampled_from([None, 2, 8]),
        group=st.sampled_from([
            {}, {}, {"group_commit": "size", "group_commit_size": 2},
            {"group_commit": "latency", "group_commit_latency": 4},
        ]),
        seeded=st.booleans(),
    )
    def build(self, strategy, frames, mode, timeout, group, seeded):
        self.mode = mode
        self.bounded = strategy == "escrow" and mode != "deferred"
        self.config = dict(
            aggregate_strategy=strategy, btree_order=4,
            buffer_pool_frames=frames, page_size=256, maintenance_mode=mode,
            lock_wait_timeout=timeout, sanitizers=True, **group,
        )
        self.created = []  # DDL names, in the order they were built
        self.committed = {"t": {}, "p": {}}  # table -> key -> row dict
        self.history = [(0, copied(self.committed))]  # (COMMIT LSN, tables)
        #: deferred views caught up with the bases at the log tail
        #: ``caught_up`` (``None``: not since a statement skipped them)
        self.caught_up = 0
        self.locks = []  # the current statement's lock_acquire events
        self.held = set()  # what its transaction held before it
        self._adopt(self._engine())
        if seeded:  # two rows of 5 in each group, where withdrawals meet
            self.insert(3, [(key, key % 4, 5, None) for key in range(8)])

    def _engine(self):
        """A schema-only engine: the tables, ``by_g`` and every object
        ``create`` built, over no rows (so nothing is logged)."""
        db = Database(EngineConfig(**self.config))
        db.create_table("t", ("id", "g", "amount", "v"), ("id",))
        db.create_table("p", ("pid", "cat"), ("pid",))
        db.create_view(AggregateView(
            "by_g", "t", group_by=("g",),
            aggregates=[
                AggregateSpec.count("n"),
                AggregateSpec.sum_of("total", "amount"),
            ],
            bounds=None if self.mode == "deferred" else BOUNDS,
        ))
        for name in self.created:
            run_ddl(db, name)
        return db

    def _adopt(self, db):
        """Continue on ``db``, just started or recovered: no transaction
        survives, the reference is the last committed state, and the
        footprint, the envelope scan and the write timeline start over."""
        self.db = db
        self.reader = None
        self.slots = [
            Slot(db.session(policy=LockPolicy.COOPERATIVE)) for _ in range(3)
        ]
        self.committed = copied(self.history[-1][1])
        self.session = db.session()
        if self._lock_event not in db.tracer.listeners:
            db.tracer.listeners.append(self._lock_event)
        self.words, self.last, self.unchecked, self.scanned = {}, {}, set(), 0
        self._scan_log()
        self.ended_by_recovery = set(self.words)
        self._after_ddl()

    def _lock_event(self, e):
        if e.name == "lock_acquire":
            self.locks.append(e)

    def _after_ddl(self):
        """The catalog changed: judge statements by its footprint, and
        let crashes cut back no further than here (DDL is not logged)."""
        self.created = [
            name for name in self.created if self.db.catalog.has_view(name)
        ]
        self.analyzer = StaticAnalyzer.configured(
            self.db.catalog, self.db.config
        )
        self._watch_store()

    def _watch_store(self):
        """A fresh timeline over the current store: ``(durable LSN at the
        write, page id, image or None for a drop)``."""
        db = self.db
        self.base = db.indexes.store.snapshot()
        self.floor = db.log.flushed_lsn
        self.timeline = []
        db.indexes.store.write_listener = lambda pid, data: self.timeline.append(
            (db.log.flushed_lsn, pid, data)
        )

    def _pick(self, s, fits):
        """The ``s``-th (modulo) of the sessions ``fits`` admits."""
        slots = [slot for slot in self.slots if fits(slot)]
        return slots[s % len(slots)]

    def _writer(self, s):
        """Who runs a statement rule: on ``s`` = 3 an idle session,
        autocommitting; else the ``s``-th (modulo) unparked session, in
        its transaction — which the statement begins if none is open."""
        if s == 3 and any(map(idle, self.slots)):
            return self._pick(s, idle)
        slot = self._pick(s, runnable)
        if slot.txn is None:
            slot.txn = slot.session.begin()
        return slot

    def _open(self):
        return [slot.txn for slot in self.slots if slot.txn is not None]

    def rows(self, slot, table="t"):
        """``table`` as ``slot`` sees it: committed, under its writes."""
        return overlay(self.committed[table], slot.writes[table])

    def current(self):
        """The tables as they stand: the committed rows under every open
        transaction's writes."""
        return {
            table: overlay(self.committed[table], {
                key: row for slot in self.slots
                for key, row in slot.writes[table].items()
            })
            for table in KEYS
        }

    # ------------------------------------------------------------------
    # statements: in a session's transaction, or autocommitted
    # ------------------------------------------------------------------

    def _step(self, slot, body):
        """Run ``body``, one statement of ``slot``: a lock wait parks the
        session — ``resume`` re-runs ``body`` — and a deadlock rolls its
        transaction back. Whether the statement ran to its end."""
        try:
            body()
            return True
        except WouldWait as wait:
            event("parked")
            slot.parked = (wait.request, body)
        except TransactionAborted as aborted:
            event(f"rolled back: {aborted.reason.split()[0]}")
            self._abort(slot)
        return False

    def _attempt(self, slot, statement):
        """``statement()``: whether it went in. An escrow bound refuses
        it (all of it); autocommitted, so does an open session's lock.
        A deadlock in ``slot``'s transaction is ``_step``'s to handle."""
        try:
            statement()
            return True
        except TransactionAborted as refused:
            bound = isinstance(refused, EscrowViolationError)
            if slot.txn is not None and not bound:
                raise
            assert bound or self._open()  # only an open session blocks
            event(f"refused: {refused.reason.split()[0]}")
            return False

    def _statement(self, slot, table, op, apply, change):
        """Run ``apply(txn)``, one row's ``op`` on ``table``, in
        ``slot``'s transaction or autocommitted, and ``change(rows)`` on
        the reference rows it writes."""
        db = self.db
        self.caught_up = None
        self._locks_from_here(slot)
        tail = db.log.tail_lsn()

        def autocommit():
            with db.session() as session:
                apply(session.current_transaction)

        if self._attempt(slot, autocommit if slot.txn is None else (
            lambda: in_statement(db, slot.txn, apply)
        )):
            self._change(slot, table, change, tail)
        self._locks_lie_inside(self.analyzer.explain(op, table))

    def _change(self, slot, table, change, tail):
        """``change(rows)`` on ``table``'s reference: ``slot``'s writes,
        or, autocommitted, the committed rows as of its COMMIT."""
        if slot.txn is None:
            change(self.committed[table])
            return self._committed(tail)
        rows = self.rows(slot, table)
        before = dict(rows)
        change(rows)
        for key in before.keys() | rows.keys():
            if rows.get(key) is not before.get(key):
                slot.writes[table][key] = rows.get(key)

    def _locks_from_here(self, slot):
        self.locks.clear()
        self.held = {
            resource for resource, _ in self.db.locks.locks_of(
                slot.txn.txn_id
            )
        } if slot.txn is not None else set()

    def _locks_lie_inside(self, report):
        """The locks the statement took lie inside ``report``'s
        footprint. Converting a lock an earlier statement took traces
        the supremum of both requests — not this statement's own — so
        such a conversion is left out."""
        taken = [
            event.as_dict()["fields"] for event in self.locks
            if not (event.fields["conversion"]
                    and event.fields["resource"] in self.held)
        ]
        assert set(lock_triples(taken)) <= predicted_locks(report)

    def _committed(self, tail_before):
        """A transaction ended in COMMIT: its rows are the committed ones,
        as of its COMMIT LSN (a transaction that logged nothing has no
        COMMIT record and changed nothing)."""
        if self.db.log.tail_lsn() != tail_before:
            self.history.append((self.db.log.tail_lsn(), copied(self.committed)))

    @precondition(any_slot(runnable))
    @rule(s=sessions,
          rows=st.lists(st.tuples(ids, groups, amounts, values), max_size=4))
    def insert(self, s, rows):
        slot = self._writer(s)
        for key, g, amount, v in rows:
            row = {"id": key, "g": g, "amount": amount, "v": v}

            def body(key=key, row=row):
                if key not in self.rows(slot) and key not in self.current()["t"]:
                    self._statement(
                        slot, "t", "insert",
                        lambda txn: self.db.insert(txn, "t", row),
                        lambda rows: rows.__setitem__(key, row),
                    )

            if not self._step(slot, body):
                return

    @precondition(any_slot(runnable))
    @rule(s=sessions, key=ids, g=st.one_of(st.none(), groups),
          amount=amounts, v=values, withdraw=st.booleans())
    def update(self, s, key, g, amount, v, withdraw):
        """Set row ``key``'s ``v`` and its amount to ``amount`` — or,
        ``withdraw``-ing, take ``amount`` off it — maybe into group
        ``g``."""
        slot = self._writer(s)

        def body():
            rows = self.rows(slot)
            if key in rows:
                changes = {"v": v, "amount": (
                    rows[key]["amount"] - amount if withdraw else amount
                )}
                if g is not None:
                    changes["g"] = g
                self._statement(
                    slot, "t", "update",
                    lambda txn: self.db.update(txn, "t", (key,), changes),
                    lambda rows: rows.__setitem__(key, {**rows[key], **changes}),
                )

        self._step(slot, body)

    @precondition(any_slot(runnable))
    @rule(s=sessions, keys=st.lists(ids, max_size=4))
    def delete(self, s, keys):
        slot = self._writer(s)
        for key in keys:
            def body(key=key):
                if key in self.rows(slot):
                    self._statement(
                        slot, "t", "delete",
                        lambda txn: self.db.delete(txn, "t", (key,)),
                        lambda rows: rows.pop(key),
                    )

            if not self._step(slot, body):
                return

    @precondition(any_slot(runnable))
    @rule(s=sessions, pid=groups, cat=st.one_of(st.none(), st.integers(0, 1)))
    def write_p(self, s, pid, cat):
        """Insert ``p``'s row ``pid``, re-categorise it, or (``cat`` None)
        delete it: the join views' other side."""
        slot, db = self._writer(s), self.db

        def body():
            present = pid in self.rows(slot, "p")
            if cat is None:
                if present:
                    self._statement(
                        slot, "p", "delete",
                        lambda txn: db.delete(txn, "p", (pid,)),
                        lambda rows: rows.pop(pid),
                    )
                return
            row = {"pid": pid, "cat": cat}
            if present:
                self._statement(
                    slot, "p", "update",
                    lambda txn: db.update(txn, "p", (pid,), {"cat": cat}),
                    lambda rows: rows.__setitem__(pid, row),
                )
            elif pid not in self.current()["p"]:
                self._statement(
                    slot, "p", "insert", lambda txn: db.insert(txn, "p", row),
                    lambda rows: rows.__setitem__(pid, row),
                )

        self._step(slot, body)

    def _execute(self, slot, sql, change, refused=False, params=()):
        """Run one SQL statement through ``Session.execute`` — in
        ``slot``'s transaction or autocommitted — and ``change(rows)`` on
        the reference rows; a ``refused`` statement leaves everything as
        it was."""
        tail = self.db.log.tail_lsn()
        self._locks_from_here(slot)
        session = self.session if slot.txn is None else slot.session
        if refused:
            with pytest.raises(StorageError):
                session.execute(sql, params)
            assert self.db.log.tail_lsn() == tail
        else:
            self.caught_up = None
            if self._attempt(slot, lambda: session.execute(sql, params)):
                self._change(slot, "t", change, tail)
        self._locks_lie_inside(self.db.execute(f"EXPLAIN {sql}", params=params))

    @precondition(any_slot(runnable))
    @rule(s=sessions,
          rows=st.lists(st.tuples(sql_ids, groups, amounts, sql_values),
                        min_size=2, max_size=4), placeholders=st.booleans())
    def sql_insert(self, s, rows, placeholders):
        """One INSERT of rows that share groups: all go in, or — a key
        the table holds or the statement repeats — none does. Half the
        time the values are ``?`` parameters: the shape repeats across
        rebuilds and crashes, so cached plans meet them too."""
        slot = self._writer(s)
        keys = [key for key, _, _, _ in rows]
        if placeholders:
            values = ", ".join("(?, ?, ?, ?)" for _ in rows)
            params = tuple(value for row in rows for value in row)
        else:
            values = ", ".join(
                f"({key}, {g}, {amount}, {literal(v)})"
                for key, g, amount, v in rows
            )
            params = ()

        def change(table):
            for key, g, amount, v in rows:
                table[key] = {"id": key, "g": g, "amount": amount, "v": v}

        self._step(slot, lambda: self._execute(
            slot, f"INSERT INTO t (id, g, amount, v) VALUES {values}", change,
            refused=len(set(keys)) < len(keys) or not set(keys).isdisjoint(
                self.current()["t"]
            ), params=params,
        ))

    @precondition(any_slot(runnable))
    @rule(s=sessions, low=sql_ids, high=sql_ids, placeholders=st.booleans())
    def sql_update(self, s, low, high, placeholders):
        """One UPDATE moving every row of an id range to the mirror
        group, ``g -> 3 - g``, its amount up by one (its bounds ``?``
        parameters half the time)."""
        slot = self._writer(s)

        def change(table):
            for key, row in table.items():
                if low <= key <= high:
                    table[key] = {
                        **row, "g": 3 - row["g"], "amount": row["amount"] + 1,
                    }

        bounds, params = (("?", "?"), (low, high)) if placeholders else (
            (low, high), ()
        )
        self._step(slot, lambda: self._execute(
            slot, "UPDATE t SET g = 3 - g, amount = amount + 1 "
            "WHERE id >= {} AND id <= {}".format(*bounds), change,
            params=params,
        ))

    # ------------------------------------------------------------------
    # transaction boundaries, waits and wake-ups
    # ------------------------------------------------------------------

    @precondition(any_slot(idle))
    @rule(s=sessions)
    def begin(self, s):
        slot = self._pick(s, idle)
        slot.txn = slot.session.begin()

    @precondition(any_slot(in_txn))
    @rule(s=sessions)
    def commit(self, s):
        slot = self._pick(s, in_txn)
        self._step(slot, lambda: self._commit(slot))

    def _commit(self, slot):
        """Commit ``slot``'s transaction (under ``commit_fold`` its folded
        deltas may wait for locks first); under group commit it is
        commit-visible now and durable once its group flushes."""
        tail = self.db.log.tail_lsn()
        self.db.commit(slot.txn)
        self.committed = {
            table: self.rows(slot, table) for table in KEYS
        }
        self._ended(slot)
        self._committed(tail)

    @precondition(any_slot(in_txn))
    @rule(s=sessions)
    def abort(self, s):
        self._abort(self._pick(s, in_txn))

    def _abort(self, slot):
        self.db.abort(slot.txn)
        self._ended(slot)

    def _ended(self, slot):
        slot.txn = slot.savepoint = slot.parked = None
        slot.writes = {table: {} for table in KEYS}

    @precondition(any_slot(in_txn))
    @rule(s=sessions)
    def take_savepoint(self, s):
        slot = self._pick(s, in_txn)
        slot.savepoint = (self.db.savepoint(slot.txn), copied(slot.writes))

    @precondition(any_slot(lambda slot: in_txn(slot) and slot.savepoint))
    @rule(s=sessions)
    def rollback_to_savepoint(self, s):
        slot = self._pick(s, lambda slot: in_txn(slot) and slot.savepoint)
        token, writes = slot.savepoint
        self.db.rollback_to(slot.txn, token)
        slot.writes = copied(writes)

    @precondition(any_slot(resolved))
    @rule(s=sessions)
    def resume(self, s):
        """A parked statement's request was granted: re-run it. Denied
        while parked — a deadlock victim, a wait past its timeout — the
        transaction rolls back."""
        slot = self._pick(s, resolved)
        request, body = slot.parked
        slot.parked = None
        if request.status is RequestStatus.DENIED:
            event(f"denied while parked: {request.deny_error.reason}")
            self._abort(slot)
        else:
            self._step(slot, body)

    @precondition(lambda self: self._deadline() is not None)
    @rule()
    def tick(self):
        """Time passes to the next deadline: waits past the lock-wait
        timeout are denied, an open latency commit group flushes."""
        db = self.db
        db.clock.advance_to(self._deadline())
        db.locks.poll(db.clock.now())
        db.group_commit.poll()

    def _deadline(self):
        deadlines = [
            deadline for deadline in (
                self.db.locks.next_deadline(),
                self.db.group_commit.next_deadline(),
            ) if deadline is not None
        ]
        return min(deadlines, default=None)

    @precondition(any_slot(in_txn))
    @rule(s=sessions, outcome=st.sampled_from(["commit", "abort", "crash"]))
    def prepared_branch(self, s, outcome):
        slot = self._pick(s, in_txn)
        self._step(slot, lambda: self._prepared(slot, outcome))

    def _prepared(self, slot, outcome):
        """Vote yes on ``slot``'s transaction as a 2PC branch, then
        commit, abort, or crash: recovery repeats the branch's history —
        its rows are back, locked, and the other sessions' are gone — and
        it stays in doubt until presumed abort."""
        db, txn = self.db, slot.txn
        db.participant.prepare(txn, f"G{txn.txn_id}")
        event(f"prepared branch: {outcome}")
        assert db.log.flushed_lsn == db.log.tail_lsn()  # the vote is durable
        if outcome == "commit":
            return self._commit(slot)
        if outcome == "abort":
            return self._abort(slot)
        branch = {table: self.rows(slot, table) for table in KEYS}
        self._crash(len(self.timeline), db.log.flushed_lsn, settle=False)
        db = self.db
        assert db.participant.in_doubt_transactions() == {
            txn.txn_id: f"G{txn.txn_id}"
        }
        self._tables_are(branch)
        db.participant.resolve_in_doubt(txn.txn_id, "abort")
        assert db.participant.in_doubt_transactions() == {}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    @rule(name=st.sampled_from(sorted(DDL)), online=st.booleans(),
          crash=st.sampled_from(
              [None, None, "snapshot:0", "snapshot:2", "flip", "post_commit"]
          ))
    def create(self, name, online, crash):
        """Build ``name`` over the rows that exist, locked or online,
        optionally crashed at a ``view.online_build`` phase."""
        db = self.db
        tail = db.log.tail_lsn()
        if db.catalog.has_view(name):
            index = db.index(name)
            entries = list(index.scan(include_ghosts=True))
            with pytest.raises(CatalogError):
                run_ddl(db, name, online)
            event("create: name in use")
            assert db.index(name) is index  # the original is intact
            assert list(index.scan(include_ghosts=True)) == entries
            assert db.log.tail_lsn() == tail
            return
        bases = {table_resource(table) for table in (
            ("t", "p") if "JOIN" in str(DDL[name]) else ("t",)
        )}
        written = any(
            not mode_compatible(mode, LockMode.S)
            for resource in bases
            for mode in [*db.locks.holders(resource).values(),
                         *(w.mode for w in db.locks.waiters(resource))]
        )
        if crash is not None:
            db.install_fault_injector(FaultInjector(seed=0)).arm(
                "view.online_build", times=1, match=crash
            )
        try:
            view = run_ddl(db, name, online)
        except SimulatedCrash as caught:
            db.install_fault_injector(None)
            event(f"create: crashed at {crash}")
            assert caught.committed is (crash == "post_commit")
            self._crash(len(self.timeline), db.log.flushed_lsn)
            assert self.db.catalog.has_view(name) is caught.committed
            assert not self.db.online_builds.active
            if caught.committed:
                self.created.append(name)
            return
        except LockTimeoutError:
            db.install_fault_injector(None)
            event("create: refused under an open writer")
            assert written  # only an open writer's table refuses it
            assert not db.catalog.has_view(name)
            assert name not in db.index_names()
            assert not db.online_builds.active
            return
        db.install_fault_injector(None)
        assert not written
        assert db.check_view_consistency(name) == []
        empty = not any(expected_index_contents(
            view, lambda table: db.index(table).rows()
        ).values())
        event(f"create: built{' empty' if empty else ''}")
        if empty:
            assert db.log.tail_lsn() == tail  # a view that computes empty
        self.created.append(name)
        self._after_ddl()

    # ------------------------------------------------------------------
    # readers: they read the committed state and log nothing
    # ------------------------------------------------------------------

    @contextmanager
    def _silent(self):
        """A reader appends nothing, and flushes nothing but a pending
        commit group it may have read from."""
        log = self.db.log
        before = len(log), log.flush_count, self.db.group_commit.pending_count()
        yield
        assert len(log) == before[0]
        assert log.flush_count == before[1] or before[2]

    @rule(kind=st.sampled_from(sorted(READS)), key=ids)
    def reader(self, kind, key):
        event(f"reader: {kind}")
        with self._silent():
            try:
                got = READS[kind](self.db, key)
            except TransactionAborted:
                assert self._open()  # only an open session blocks it
            else:
                want = self.committed["t"].get(key)
                assert (got is None) if want is None else same(dict(got), want)

    @precondition(lambda self: self.reader is None)
    @rule()
    def open_snapshot(self):
        self.reader = (
            self.db.begin(isolation="snapshot"), self.history[-1][0]
        )

    @precondition(lambda self: self.reader is not None)
    @rule()
    def snapshot_read(self):
        """The snapshot reader reads each table as ``history`` replayed
        to the last COMMIT before its start (reenactment), then commits
        silently."""
        db, (txn, as_of) = self.db, self.reader
        want = [tables for lsn, tables in self.history if lsn <= as_of][-1]
        with self._silent():
            for table, key in KEYS.items():
                got = {row[key]: dict(row) for row in db.scan(txn, table)}
                assert got.keys() == want[table].keys(), table
                for k, row in want[table].items():
                    assert same(got[k], row), (table, k, got[k], row)
            db.commit(txn)
        self.reader = None
        event("snapshot read")

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------

    @precondition(lambda self: not self._open())
    @rule()
    def ghost_cleanup(self):
        self.db.run_ghost_cleanup()

    @precondition(lambda self: not self._open())
    @rule()
    def refresh(self):
        for view in self.db.catalog.views():
            self.db.refresh_view(view.name)
        assert self.db.deferred.pending_count() == 0
        self._views_caught_up()

    @precondition(lambda self: not self._open())
    @rule(data=st.data())
    def quarantine_and_rebuild(self, data):
        name = data.draw(st.sampled_from(["by_g", *self.created]))
        self.db.quarantine_view(name)
        self.db.rebuild_view(name)
        assert self.db.check_view_consistency(name) == []

    def _views_caught_up(self):
        assert self.db.check_all_views() == []
        self.caught_up = self.db.log.tail_lsn()

    @rule()
    def checkpoint(self):
        self.db.take_checkpoint()

    # ------------------------------------------------------------------
    # crashes, faults and restores
    # ------------------------------------------------------------------

    @rule(data=st.data(), interrupt=st.sampled_from(
        [None, None, "recovery.analysis", "recovery.redo", "recovery.undo"]
    ), after=st.integers(0, 4))
    def crash_and_recover(self, data, interrupt, after):
        timeline = self.timeline
        kept = data.draw(st.integers(0, len(timeline)), label="writes kept")
        low = timeline[kept - 1][0] if kept else self.floor
        high = (
            timeline[kept][0] if kept < len(timeline)
            else self.db.log.flushed_lsn
        )
        cut = data.draw(st.integers(low, high), label="log cut")
        if self._open():
            event("crash with sessions in flight")
        self._crash(kept, cut, interrupt, after)

    def _crash(self, kept, cut, interrupt=None, after=0, settle=True):
        """Crash with the first ``kept`` write-backs on the device and the
        log durable to ``cut``, then recover — re-entering recovery if
        the ``interrupt`` site fires in it after ``after`` hits."""
        db = self.db
        images = dict(self.base)
        for _, page_id, image in self.timeline[:kept]:
            if image is None:
                images.pop(page_id, None)
            else:
                images[page_id] = image
        db.log.flushed_lsn = cut
        db.log.crash()
        db.indexes.store.restore(images)
        if interrupt is not None:
            db.install_fault_injector(FaultInjector(seed=0)).arm(
                interrupt, after=after, times=1
            )
        try:
            report = db.restart.recover()
        except SimulatedCrash:
            report = db.restart.crash_and_recover()
            assert report.restarts == 1
            event(f"recovery re-entered after {interrupt}")
        db.install_fault_injector(None)
        if self.caught_up is not None and self.caught_up > cut:
            self.caught_up = None  # the catching up is cut off
        self._recovered(settle)

    def _recovered(self, settle=True):
        """Continue on the engine recovery just rebuilt: ``history``
        keeps the commits whose COMMIT record survived (recovery's own
        records take the LSNs of the lost ones; none is a COMMIT), and
        (``settle``) every branch left in doubt is aborted, as a
        coordinator that finds no decision presumes — a commit group
        lost to a crash can leave one too (a group holding a prepared
        branch escalates rather than retract)."""
        log = self.db.log

        def survived(lsn):
            record = next(log.records(lsn), None)
            return (record is not None and record.lsn == lsn
                    and record.type is RecordType.COMMIT)

        self.history = [
            (lsn, rows) for lsn, rows in self.history if not lsn or survived(lsn)
        ]
        self._adopt(self.db)
        if settle:
            for txn_id in sorted(self.db.participant.in_doubt_transactions()):
                self.db.participant.resolve_in_doubt(txn_id, "abort")

    @precondition(lambda self: not self._open())
    @rule(site=st.sampled_from(FAULT_SITES), key=ids, g=groups,
          amount=amounts)
    def fault(self, site, key, g, amount):
        """Arm ``site`` — every hit fires — for one autocommitted write
        (insert row ``key``, or delete it if it exists) or, for
        ``cleanup.interrupt``, one cleaner pass."""
        db = self.db
        event(f"fault: {site}")
        injector = db.install_fault_injector(FaultInjector(seed=0))
        injector.arm(site)
        if site == "cleanup.interrupt":
            requeued = db.cleaner.requeued
            assert db.run_ghost_cleanup() == 0
            # every candidate still in its index went back on the queue
            assert len(db.cleanup) == db.cleaner.requeued - requeued
            db.install_fault_injector(None)
            return
        rows = self.committed["t"]
        if key in rows:
            write, change = (lambda txn: db.delete(txn, "t", (key,)),
                             lambda: rows.pop(key))
        else:
            row = {"id": key, "g": g, "amount": amount, "v": None}
            write, change = (lambda txn: db.insert(txn, "t", row),
                             lambda: rows.__setitem__(key, row))

        def waited(txn):
            """``write(txn)`` and its commit, each waiting out every
            ``lock.delay``: the clock runs to the delayed grant, and the
            step re-runs — unless the lock-wait timeout came first."""
            for step in (write, db.commit):
                while True:
                    try:
                        step(txn)
                        break
                    except WouldWait as wait:
                        db.clock.advance_to(db.locks.next_deadline())
                        db.locks.poll(db.clock.now())
                        if wait.request.deny_error is not None:
                            raise wait.request.deny_error

        txn = db.begin(policy=LockPolicy.COOPERATIVE)
        tail = db.log.tail_lsn()
        self.caught_up = None
        try:
            db.settle(txn, waited)
        except (EscrowViolationError, LockTimeoutError) as refused:
            # an escrow bound refused it before the site was reached (a
            # corrupt site may have hit its rollback), or a lock delayed
            # past the lock-wait timeout
            db.install_fault_injector(None)
            assert site in ("lock.delay", "wal.corrupt") or (
                not injector.fired.get(site)
            )
            assert isinstance(refused, EscrowViolationError) or (
                db.config.lock_wait_timeout is not None
            )
        except FaultInjected as caught:
            db.install_fault_injector(None)
            assert caught.site == site
            if site in ("wal.append", "lock.deny"):  # the write rolled back
                assert injector.fired[site] == 1  # the rollback is immune
                assert (db.log.tail_lsn() > tail) is (site == "wal.append")
                assert db.active_transactions() == (
                    [self.reader[0]] if self.reader is not None else []
                )
                assert db.locks.active_resources() == []
            else:  # a failed group flush retracted the group: recovered
                assert db.config.group_commit is not None
                self._recovered()
        except SimulatedCrash as caught:
            db.install_fault_injector(None)
            assert caught.site == site != "wal.append"
            assert caught.committed is (site == "txn.commit.after")
            if site == "wal.torn_tail":  # all but the COMMIT is durable
                assert db.log.flushed_lsn == db.log.tail_lsn() - 1
            durable = [
                record.lsn for record in db.log.records(tail + 1)
                if record.type is RecordType.COMMIT
                and record.txn_id == txn.txn_id
                and record.lsn <= db.log.flushed_lsn
            ]
            assert bool(durable) is caught.committed
            if durable:
                change()
                self.history.append((durable[0], copied(self.committed)))
            self._crash(len(self.timeline), db.log.flushed_lsn)
        else:
            db.install_fault_injector(None)
            # no view maintained on the write is midway; a delayed lock is
            # granted; a corrupted record is only found by recovery
            assert site in (
                "view.midapply", "lock.delay", "wal.corrupt", "wal.group_flush"
            )
            change()
            self._committed(tail)
        if site == "wal.corrupt":  # recovery's salvage cuts the log there
            self._crash(len(self.timeline), db.log.flushed_lsn)

    @rule()
    def restore_from_segments(self):
        """Dump the WAL as segment files and restore them into a
        schema-only engine (the open transactions' flushed records make
        them losers there); the machine continues on the restored
        engine."""
        with tempfile.TemporaryDirectory() as directory:
            self.db.dump_wal_segments(directory)
            records = len(self.db.log)
            fresh = self._engine()
            report = fresh.load_wal_segments_and_recover(directory)
        assert (report.pages_loaded, report.redo_skipped) == (0, 0)
        assert report.analyzed_records == records  # the whole log replays
        event("restored from segments")
        self._adopt(fresh)

    # ------------------------------------------------------------------
    # the oracle
    # ------------------------------------------------------------------

    def _tables_are(self, tables):
        for table, key in KEYS.items():
            got = {
                k[0]: dict(record.current_row)
                for k, record in self.db.index(table).scan()
            }
            want = tables[table]
            assert got.keys() == want.keys(), table
            for k, row in want.items():
                assert same(got[k], row), (table, k, got[k], row)

    @invariant()
    def tables_are_the_reference(self):
        self._tables_are(self.current())

    def views_are_exact(self):
        if self.mode == "commit_fold":
            return not self._open()
        if self.mode == "deferred":
            return self.caught_up is not None
        return True

    @invariant()
    def views_and_storage_are_clean(self):
        exact = self.views_are_exact()
        damage = [
            found for found in self.db.check_integrity().damage
            if exact or found.kind != "view"
        ]
        assert damage == [], damage

    @invariant()
    def protocols_are_clean(self):
        assert self.db.sanitizers.check() == []

    @invariant()
    def escrow_is_open_and_bounded(self):
        """Escrow deltas are pending for open transactions only, and the
        committed ``total`` of every group keeps its bound."""
        open_ = {txn.txn_id for txn in self._open()}
        for name, index in self.db.indexes.items():
            for _, record in index.scan(include_ghosts=True):
                assert record.escrow is None or (
                    record.escrow.pending and record.escrow.pending.keys() <= open_
                ), (name, record, record.escrow and record.escrow.pending)
                if self.bounded and name == "by_g":
                    assert record.current_row["total"] >= BOUNDS["total"][0]

    @invariant()
    def parked_sessions_wait_on_open_sessions(self):
        """A waiting request has a blocker (else the manager missed a
        grant), and only an open session can be it."""
        open_ = {txn.txn_id for txn in self._open()}
        for slot in self.slots:
            if slot.parked and slot.parked[0].status is RequestStatus.WAITING:
                blockers = self.db.locks.blockers_of(slot.txn.txn_id)
                assert blockers and blockers <= open_ - {slot.txn.txn_id}

    def _scan_log(self):
        """Read the records appended since the last scan into ``words``
        (txn id -> one letter per record), checking the backchain: a
        transaction's first record has no ``prev_lsn``, every other one
        points at its predecessor."""
        for record in self.db.log.records(self.scanned + 1):
            self.scanned = record.lsn
            txn_id = record.txn_id
            if txn_id is None:
                continue
            assert record.prev_lsn == self.last.get(txn_id), record
            self.last[txn_id] = record.lsn
            self.words[txn_id] = (
                self.words.get(txn_id, "") + LETTER.get(record.type, "R")
            )
            self.unchecked.add(txn_id)

    @invariant()
    def every_transaction_matches_the_envelope(self):
        self._scan_log()
        open_ = {txn.txn_id for txn in self._open()}
        for txn_id in sorted(self.unchecked):
            word = self.words[txn_id]
            if txn_id in open_:
                assert OPEN.fullmatch(word), (txn_id, word)
                continue
            grammar = (
                RECOVERED if txn_id in self.ended_by_recovery else GRAMMAR
            )
            assert grammar.fullmatch(word), (txn_id, word)
            self.unchecked.discard(txn_id)


CrashMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None,
)
TestCrashMachine = CrashMachine.TestCase
