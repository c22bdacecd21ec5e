"""Sessions: the connection-like convenience layer.

A :class:`Session` binds a :class:`~repro.core.database.Database` with an
implicit *current transaction*, so application code reads like SQL client
code instead of threading a txn handle through every call::

    session = db.session()
    session.begin()
    session.insert("sales", {"id": 1, "product": "ant", "amount": 3})
    session.commit()

    # the same as a block: committed on a clean exit, aborted on an error
    with db.session() as session:
        session.insert("sales", {"id": 2, "product": "bee", "amount": 5})

    # or autocommit: each statement is its own transaction
    session.insert("sales", {"id": 3, "product": "bee", "amount": 5})

Outside an explicit ``begin()``, every statement runs in **autocommit**
mode (its own transaction, committed on success, aborted on failure) —
the same default as every SQL client library. However a session's
transaction ends (``commit()``, a ``with`` block, an autocommit
statement, an attempt of :meth:`Session.run`), it ends through
:meth:`Database.settle <repro.core.database.Database.settle>`.
"""

from repro.common import TransactionAborted, TransactionStateError
from repro.sql import execute_script, in_statement
from repro.txn.transaction import LockPolicy, TxnState


class Session:
    """One client's connection to the engine."""

    def __init__(self, db, isolation="serializable", policy=LockPolicy.NOWAIT):
        self._db = db
        self.isolation = isolation
        self.policy = policy
        self._txn = None

    def __repr__(self):
        state = self._txn.state.value if self._txn is not None else "idle"
        return f"Session({state}, isolation={self.isolation})"

    # ------------------------------------------------------------------
    # transaction control
    # ------------------------------------------------------------------

    @property
    def current_transaction(self):
        return self._txn

    def in_transaction(self):
        return self._txn is not None and self._txn.state is TxnState.ACTIVE

    def begin(self):
        """Start an explicit transaction (error if one is open)."""
        if self.in_transaction():
            raise TransactionStateError("session already has an open transaction")
        self._txn = self._db.begin(
            policy=self.policy, isolation=self.isolation
        )
        return self._txn

    def commit(self):
        if not self.in_transaction():
            raise TransactionStateError("no open transaction to commit")
        txn, self._txn = self._txn, None
        self._db.settle(txn)

    def __enter__(self):
        self.begin()
        return self

    def __exit__(self, exc_type, exc, tb):
        txn, self._txn = self._txn, None
        if txn is not None:  # else the block resolved it itself
            self._db.settle(txn, failure=exc)
        return False

    def rollback(self):
        if not self.in_transaction():
            raise TransactionStateError("no open transaction to roll back")
        try:
            self._db.abort(self._txn)
        finally:
            self._txn = None

    def savepoint(self):
        if not self.in_transaction():
            raise TransactionStateError("savepoints need an open transaction")
        return self._db.savepoint(self._txn)

    def rollback_to(self, savepoint):
        if not self.in_transaction():
            raise TransactionStateError("no open transaction")
        self._db.rollback_to(self._txn, savepoint)

    # ------------------------------------------------------------------
    # statements (explicit-txn or autocommit)
    # ------------------------------------------------------------------

    def run(self, fn, retries=3):
        """Run ``fn(session)`` in one transaction, re-executing it when it
        aborts for a retryable reason (deadlock, lock timeout, injected
        fault, retracted commit group — any
        :class:`~repro.common.TransactionAborted`): the engine's one
        retry loop. The session's current transaction is set for each
        attempt, so ``fn`` uses plain session statements::

            session.run(lambda s: s.update("acct", (1,), {"bal": 0}))

        ``retries`` bounds *re*-executions (``retries=3``: up to 4
        attempts, each a fresh transaction, so ``fn`` must be safe to
        re-run). Between attempts the logical clock advances by
        ``min(cap, base * 2**(attempt-1))`` plus jitter in ``[0, base]``
        from the database's ``retry_seed`` stream (``docs/ROBUSTNESS.md``).
        A :class:`~repro.common.SimulatedCrash` is never retried. Returns
        ``fn``'s result from the successful attempt.
        """
        if self.in_transaction():
            raise TransactionStateError(
                "run() manages its own transaction; commit or roll back first"
            )
        db = self._db
        config = db.config
        attempt = 0
        while True:
            attempt += 1
            txn = self.begin()
            try:
                result = db.settle(txn, lambda _txn: fn(self))
                db.retries.observe_run(attempt, success=True)
                return result
            except TransactionAborted as aborted:
                if attempt > retries:
                    db.retries.observe_run(attempt, success=False)
                    raise
                backoff = min(
                    config.retry_backoff_cap,
                    config.retry_backoff_base * 2 ** (attempt - 1),
                ) + db.retry_rng.randint(0, config.retry_backoff_base)
                db.retries.observe_backoff(backoff)
                if db.tracer.enabled:
                    db.tracer.emit(
                        "txn_retry", txn_id=txn.txn_id, attempt=attempt,
                        backoff=backoff, reason=aborted.reason or "aborted",
                    )
                db.clock.tick(backoff)
            finally:
                self._txn = None

    def _run(self, fn):
        if self.in_transaction():
            return fn(self._txn)
        return self._db.settle(
            self._db.begin(policy=self.policy, isolation=self.isolation), fn
        )

    def execute(self, sql, params=()):
        """Execute SQL in this session: inside the current transaction
        when one is open, each statement all or nothing, autocommit
        otherwise — through the one statement dispatcher
        (:func:`repro.sql.execute_script`), so DDL, ``EXPLAIN`` and
        ``CHECK VIEW`` run outside any transaction. The ``i``-th ``?``
        in ``sql`` stands for ``params[i]``::

            session.execute("INSERT INTO t (a, b) VALUES (?, ?)", (1, "x"))
        """
        def run(fn):
            if self.in_transaction():
                return in_statement(self._db, self._txn, fn)
            return self._run(fn)

        return execute_script(self._db, sql, run, params)

    def insert(self, table, values):
        return self._run(lambda txn: self._db.insert(txn, table, values))

    def update(self, table, key, changes):
        return self._run(lambda txn: self._db.update(txn, table, key, changes))

    def delete(self, table, key):
        return self._run(lambda txn: self._db.delete(txn, table, key))

    def read(self, name, key, for_update=False):
        return self._run(
            lambda txn: self._db.read(txn, name, key, for_update=for_update)
        )

    def read_exact(self, name, key):
        return self._run(lambda txn: self._db.read_exact(txn, name, key))

    def scan(self, name, key_range=None):
        return self._run(lambda txn: self._db.scan(txn, name, key_range))

    def lookup(self, table, index_name, values):
        return self._run(
            lambda txn: self._db.lookup(txn, table, index_name, values)
        )
