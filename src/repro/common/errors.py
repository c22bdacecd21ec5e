"""Exception hierarchy for the engine.

Every error raised by ``repro`` derives from :class:`ReproError`, so callers
can catch engine failures without catching unrelated bugs. The hierarchy
mirrors the subsystems: storage, WAL, locking, transactions, catalog.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro engine."""


class StorageError(ReproError):
    """A storage-layer invariant was violated (bad key, missing record...)."""


class UnsupportedValueError(StorageError):
    """A row or key holds a value the storage codec has no layout for
    (a ``list``, a ``set``, a user object ...). Raised before anything is
    mutated or logged: the transaction stays usable."""


class WalError(ReproError):
    """The write-ahead log was used incorrectly or is corrupt."""


class WalCorruptionError(WalError):
    """The durable log failed its checksum scan and committed work was
    lost past the salvage truncation point.

    Raised only under ``EngineConfig(salvage_policy="strict")``; the
    default ``"report"`` policy completes recovery and enumerates the
    loss in ``RecoveryReport.salvage`` instead. Either way the loss is
    never silent. Carries the salvage report dict as ``salvage``.
    """

    def __init__(self, message, salvage=None):
        super().__init__(message)
        self.salvage = salvage


class IntegrityError(ReproError):
    """The online integrity checker found structural damage, or a
    repair operation (quarantine / rebuild) was used incorrectly."""


class CatalogError(ReproError):
    """A schema object is missing, duplicated, or ill-formed."""


class NonLinearError(CatalogError):
    """A SUM argument that has no linear normal form, so its deltas
    cannot be proved to commute (static analyzer diagnostic ``SA002``).

    ``detail`` names the offending construct; ``pos`` (when known) is
    the ``(line, column)`` of the sub-expression that broke linearity.
    """

    def __init__(self, detail, pos=None):
        super().__init__(detail)
        self.detail = detail
        self.pos = pos


class TransactionStateError(ReproError):
    """An operation was attempted in an illegal transaction state.

    For example: writing through an already-committed transaction, or
    committing twice.
    """


class TransactionAborted(ReproError):
    """The transaction was aborted and must be rolled back by the caller.

    Carries a ``reason`` string (e.g. ``"deadlock"``, ``"user"``,
    ``"serialization"``) so harnesses can classify aborts.
    """

    def __init__(self, txn_id, reason="user"):
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class DeadlockError(TransactionAborted):
    """The transaction was chosen as a deadlock victim."""

    def __init__(self, txn_id, cycle=()):
        super().__init__(txn_id, reason="deadlock")
        self.cycle = tuple(cycle)


class LockTimeoutError(TransactionAborted):
    """A lock request waited longer than the configured timeout."""

    def __init__(self, txn_id, resource=None):
        super().__init__(txn_id, reason="lock timeout")
        self.resource = resource


class FaultInjected(TransactionAborted):
    """An armed fault site fired (see :mod:`repro.faults`).

    Subclasses :class:`TransactionAborted` because every recoverable
    fault site is placed where the normal abort path fully cleans up —
    the transaction rolls back and may simply be retried.
    """

    def __init__(self, site, txn_id=None):
        super().__init__(txn_id, reason=f"fault {site}")
        self.site = site


class PartitionUnavailableError(TransactionAborted):
    """A statement was routed to a partition that is currently down.

    Subclasses :class:`TransactionAborted` because the global transaction
    aborts cleanly (its surviving branches roll back) and may be retried
    once the partition recovers and rejoins — the distributed analogue of
    a retryable fault.
    """

    def __init__(self, txn_id, partition=None):
        super().__init__(txn_id, reason=f"partition {partition} unavailable")
        self.partition = partition


class WouldWait(ReproError):
    """Control-flow signal: the lock request was queued; park and retry.

    Not an error in the failure sense — it never escapes the scheduler.
    Raised under the ``COOPERATIVE`` lock policy (see
    :mod:`repro.txn.transaction`).
    """

    def __init__(self, request):
        super().__init__(f"txn {request.txn_id} must wait for {request.resource!r}")
        self.request = request


class SimulatedCrash(ReproError):
    """A crash fault site fired: the simulated process is gone.

    Deliberately *not* a :class:`TransactionAborted` — nothing may roll
    back online after a crash. The harness that armed the site must call
    ``Database.simulate_crash_and_recover()`` before touching the
    database again; ``committed`` records whether the crashing
    transaction's COMMIT record was durable at the crash point (i.e.
    whether recovery must replay it as a winner).
    """

    def __init__(self, site, committed=False):
        super().__init__(f"simulated crash at {site}")
        self.site = site
        self.committed = committed


class SqlError(ReproError):
    """A statement on the SQL surface could not be processed.

    Carries the source position of the offending token when one is
    known; the message always embeds it (``... (line 2, column 14)``)
    so a REPL or test can point at the exact spot without unpacking
    attributes.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ParseError(SqlError):
    """The statement text is not in the dialect's grammar."""


class BindError(SqlError):
    """A parsed statement references names the catalog cannot resolve
    (unknown table, unknown or ambiguous column, duplicate alias)."""


class UnsupportedSqlError(SqlError):
    """The statement is well-formed and binds, but asks for something
    the engine deliberately does not support (MIN/MAX over a join,
    aggregates without GROUP BY, an unknown WITH option ...)."""


class SerializationError(TransactionAborted):
    """The transaction could not be serialized (e.g. write-write conflict
    under snapshot isolation, or an escrow limit would be violated)."""

    def __init__(self, txn_id, detail=""):
        super().__init__(txn_id, reason=f"serialization failure {detail}".strip())
        self.detail = detail


class EscrowViolationError(SerializationError):
    """An escrow update would take a counter outside its permitted bounds
    under some serial order of the in-flight transactions."""

    def __init__(self, txn_id, resource=None, detail=""):
        super().__init__(txn_id, detail or "escrow bound violation")
        self.resource = resource
