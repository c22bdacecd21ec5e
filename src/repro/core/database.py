"""The engine facade: schema, transactions, DML, reads, recovery.

:class:`Database` wires every subsystem together and is the public API a
downstream user programs against. The canonical surface is SQL
(``docs/SQL.md``)::

    db = Database()
    db.execute("CREATE TABLE sales (id, product, amount, PRIMARY KEY (id))")
    db.execute(
        "CREATE UNIQUE INDEXED VIEW sales_by_product AS "
        "SELECT product, COUNT(*) AS n, SUM(amount) AS total "
        "FROM sales GROUP BY product"
    )
    db.execute("INSERT INTO sales (id, product, amount) VALUES (1, 'ant', 30)")
    db.read_committed("sales_by_product", ("ant",))   # Row(product='ant', n=1, total=30)

The Python statement API underneath (``begin``/``insert``/``commit``,
``create_view`` with a constructed ``ViewDefinition``) remains fully
supported; ``execute`` compiles to exactly those calls.

Every statement follows the lock-first / mutate-second discipline (see
:mod:`repro.views.actions`): the statement compiles into actions, all lock
plans are acquired, then all mutations apply and log. Under the
cooperative policy a lock wait aborts the statement run with
:class:`~repro.txn.transaction.WouldWait` and the simulator re-runs it.
"""

import itertools

from repro.catalog import Catalog, TableSchema
from repro.common import (
    CatalogError,
    DeterministicRng,
    FaultInjected,
    LogicalClock,
    Row,
    SimulatedCrash,
    StorageError,
    TransactionStateError,
    UnsupportedSqlError,
    WalCorruptionError,
)
from repro.common.keys import KeyRange
from repro.faults import NULL_INJECTOR
from repro.locking import EscrowRegistry, LatchSet, LockManager, LockMode
from repro.locking.keyrange import (
    key_resource,
    locks_for_point_read,
    locks_for_range_scan,
    table_resource,
)
from repro.obs import Counters, EngineMetrics, RetryStats, Tracer
from repro.storage import Index
from repro.storage.bufferpool import BufferPool, PageStore, durable_winners
from repro.txn import LockPolicy, SnapshotRegistry, TransactionManager
from repro.txn.transaction import TxnState
from repro.views.deferred import DeferredMaintainer
from repro.views.definition import SecondaryIndex
from repro.views.delta import TxnViewDeltas
from repro.views.maintenance import MaintenanceEngine
from repro.views.online import (
    OnlineBuildRegistry,
    ViewBuilder,
    resolve_after_recovery,
)
from repro.core.cleanup import CleanupQueue, GhostCleaner
from repro.core.config import EngineConfig
from repro.wal import (
    CheckpointRecord,
    CommitTicket,
    GroupCommitCoordinator,
    LogManager,
    recover,
    salvage,
)
from repro.wal.records import (
    AbortRecord,
    CommitRecord,
    PrepareRecord,
)
from repro.wal.recovery import RecoveryTarget, undo
from repro.wal.segments import dump_segments, load_segments, recycle_segments


class Database(RecoveryTarget):
    """An in-memory transactional engine with indexed views."""

    def __init__(self, config=None):
        self.config = config or EngineConfig()
        self.clock = LogicalClock()
        self.tracer = Tracer(clock=self.clock)  # disabled until .enable()
        self.metrics = EngineMetrics()
        self.faults = NULL_INJECTOR  # see install_fault_injector()
        self.retries = RetryStats()
        self._retry_rng = DeterministicRng(self.config.retry_seed)
        self.log = LogManager(
            tracer=self.tracer, faults=self.faults,
            checksums=self.config.wal_checksums,
        )
        self.catalog = Catalog()
        self.counters = Counters()
        self.deferred = DeferredMaintainer(self.clock)
        self.maintenance = MaintenanceEngine(
            self.catalog, aggregate_strategy=self.config.aggregate_strategy
        )
        self.group_commit = GroupCommitCoordinator(
            self.log, self.clock,
            policy=self.config.group_commit,
            size=self.config.group_commit_size,
            latency=self.config.group_commit_latency,
            tracer=self.tracer, faults=self.faults,
        )
        self.group_commit.failure_handler = self._on_group_flush_failure
        self._indexes = {}
        self._index_views = {}  # index name -> owning view definition
        self._plans = {}  # table name -> WritePlan, rebuilt by DDL
        #: every B-tree leaf is a page with an id unique to this engine
        self._page_ids = itertools.count(1)
        self._wire_volatile()
        #: the page world: a durable page store (survives crashes) under
        #: the buffer pool's dirty-leaf table (docs/STORAGE.md).
        self._attach_page_store()
        from repro.integrity import QuarantineManager

        #: damaged-view registry; reads on quarantined views degrade to
        #: recomputation and their maintenance pauses until rebuild.
        self.quarantine = QuarantineManager(self)
        #: views mid online build; their maintenance is suppressed (the
        #: build's flip reconciles them) and reads refuse them.
        self.online_builds = OnlineBuildRegistry()
        #: recovery attempts since the last completed recovery — nonzero
        #: while a crash storm is interrupting recovery itself.
        self._recovery_attempts = 0
        self._pending_salvage = None  # carried across recovery re-entries
        #: post-recovery in-doubt registry: txn_id -> {"gid", "first_lsn",
        #: "last_lsn", "resources"} for prepared branches awaiting the
        #: coordinator's decision (see :meth:`resolve_in_doubt`). Live
        #: prepared branches are *not* here — they are ordinary active
        #: transactions until a crash severs them from their handle.
        self._in_doubt = {}
        self._integrity_checks = 0
        self._integrity_damage = 0
        from repro.locking.escalation import EscalationPolicy

        self.escalation = EscalationPolicy(
            self.config.escalation_threshold, tracer=self.tracer
        )
        #: live protocol checkers (EngineConfig(sanitizers=True)), else None
        self.sanitizers = None
        if self.config.sanitizers:
            from repro.analysis import SanitizerSuite

            self.sanitizers = SanitizerSuite(
                group_commit=self.config.group_commit is not None
            )
            # Sanitizers need the whole stream: every category, every
            # event at emit time (the ring may evict, listeners see all).
            self.tracer.enable()
            self.tracer.listeners.append(self.sanitizers.observe)

    # ==================================================================
    # fault injection
    # ==================================================================

    def install_fault_injector(self, injector):
        """Thread a :class:`~repro.faults.FaultInjector` through every
        fault site (WAL, lock manager, transaction manager, maintenance,
        cleaner). Pass ``None`` to restore the inert null injector.

        The injector survives :meth:`simulate_crash_and_recover` — real
        flaky hardware does too. Recovery evaluates its own crash sites
        (``recovery.analysis`` / ``recovery.redo`` / ``recovery.undo``)
        and the log evaluates ``wal.corrupt`` at the durability boundary,
        so a crash storm can interrupt recovery itself; re-enter by
        calling :meth:`simulate_crash_and_recover` again. The retryable
        flush/append sites are never evaluated from inside recovery.
        """
        self.faults = injector if injector is not None else NULL_INJECTOR
        self.faults.tracer = self.tracer
        self.log.faults = self.faults
        self.locks.faults = self.faults
        self._txns.faults = self.faults
        self.group_commit.faults = self.faults
        self._store.faults = self.faults
        return self.faults

    # ==================================================================
    # schema
    # ==================================================================

    def create_table(self, name, columns, primary_key):
        """Register a table and build its primary-key index."""
        schema = self.catalog.add_table(TableSchema(name, columns, primary_key))
        self._indexes[name] = self._new_index(name, schema.primary_key)
        self._replan([name])
        return schema

    def create_secondary_index(self, table, name, columns, unique=False):
        """Create the secondary index ``table#name`` on ``columns`` — a
        :class:`~repro.views.definition.SecondaryIndex` view, built and
        maintained like any other; ``unique=True`` enforces the
        constraint. Returns the definition."""
        index = SecondaryIndex(table, name, columns, unique=unique)
        return self.create_view(index, unique=unique)

    def lookup(self, txn, table, index_name, values):
        """Base rows of ``table`` whose indexed columns equal ``values``:
        a :meth:`scan` of the index entries under that prefix, then a
        :meth:`read` of each entry's base row."""
        name = f"{table}#{index_name}"
        index = self.catalog.view(name) if self.catalog.has_view(name) else None
        if not isinstance(index, SecondaryIndex) or index.base != table:
            raise CatalogError(f"no index {index_name!r} on table {table!r}")
        if len(values) != len(index.indexed):
            raise CatalogError(
                f"index {index_name!r} on {table!r} takes "
                f"{len(index.indexed)} values, got {len(values)}"
            )
        probe = KeyRange.prefix(tuple(values), len(index.key_columns))
        pk = self.table_pk(table)
        rows = (
            self.read(txn, table, entry.key(pk))
            for entry in self.scan(txn, name, probe)
        )
        return [row for row in rows if row is not None]

    def create_view(self, view, *, unique=True, deferred=False,
                    online=False):
        """Register a view, build its index(es), and fill it over any
        existing base data. Returns the definition.

        ``view`` is either a :class:`~repro.views.definition.ViewDefinition`
        (primary-key columns it leaves unset are taken from the catalog)
        or a ``CREATE [UNIQUE] INDEXED VIEW ... AS SELECT ...`` SQL string
        (compiled through :func:`repro.sql.compile_view`; the statement's
        ``UNIQUE`` and ``WITH (...)`` options override the keyword
        arguments). ``unique`` records the key-uniqueness of the view
        index (always satisfied but for a
        :class:`~repro.views.definition.SecondaryIndex`, see
        :meth:`create_secondary_index`); ``deferred=True`` leaves this one
        view unmaintained by statements even when the global
        ``maintenance_mode`` is immediate (refresh with
        :meth:`refresh_view`). ``online=True`` builds the view without
        blocking writers: a snapshot fill, then a short lock-protected
        flip that reconciles what committed meanwhile; otherwise the
        build holds S on the base tables throughout (see
        :mod:`repro.views.online` for both).

        DDL is not logged: recovery re-creates the schema from the
        catalog, then replays the data log. The *fill* is: its inserts
        run in one logged system transaction, so recovery settles an
        interrupted build (complete when the build commit is durable,
        absent otherwise). A view that computes empty logs nothing.
        """
        view, options = self._view_definition(view, unique, deferred)
        builder = ViewBuilder(self, view)
        if options.get("online", online):
            return builder.run()
        return builder.run_locked()

    def begin_online_build(self, view, *, unique=True):
        """An un-run :class:`~repro.views.online.ViewBuilder` for
        ``view`` (definition or CREATE INDEXED VIEW SQL) — callers drive
        ``start`` / ``finish`` themselves, interleaving writers between
        them; :meth:`create_view` with ``online=True`` is the one-shot
        form."""
        view, _ = self._view_definition(view, unique, deferred=False)
        return ViewBuilder(self, view)

    def _view_definition(self, view, unique, deferred):
        """``(definition, WITH options)`` of what a caller handed to view
        creation — a definition (keys bound to the catalog), SQL text or
        a parsed statement — with its ``unique`` and ``deferred`` flags
        set (a statement's own options win)."""
        options = {}
        if not hasattr(view, "kind"):
            from repro.sql import ast as sql_ast
            from repro.sql import bind_options, compile_view, parse_one

            stmt = parse_one(view) if isinstance(view, str) else view
            if not isinstance(stmt, sql_ast.CreateView):
                raise UnsupportedSqlError(
                    "view creation expects a CREATE INDEXED VIEW "
                    f"statement; got {type(stmt).__name__}", *stmt.pos
                )
            options = bind_options(stmt)
            unique = stmt.unique
            view = compile_view(stmt, self.catalog)
        view.bind_keys(self.catalog)
        view.unique = unique
        view.deferred = options.get("deferred", deferred)
        return view, options

    def _create_view_indexes(self, view):
        """Build the (empty) index family a view owns; replan its bases."""
        for index_name, key_columns in view.owned_indexes():
            self._indexes[index_name] = self._new_index(index_name, key_columns)
            self._index_views[index_name] = view
        self._replan(view.base_tables())

    def _replan(self, tables):
        """Build the write plans of ``tables`` afresh: every DDL on them,
        and recovery (which makes every index anew), calls this."""
        for table in tables:
            self._plans[table] = self.maintenance.plan(self, table)

    def _new_index(self, name, key_columns):
        """An empty index whose leaves are pages of this engine."""
        return Index(
            name, key_columns, order=self.config.btree_order,
            latch_set=self.latches, pages=self._pool,
        )

    # ==================================================================
    # lookups other layers use
    # ==================================================================

    def index(self, name):
        try:
            return self._indexes[name]
        except KeyError:
            raise StorageError(f"no index named {name!r}") from None

    def index_names(self):
        return sorted(self._indexes)

    def table_key(self, table, row):
        return self.catalog.table(table).key_of(row)

    def table_pk(self, table):
        return self.catalog.table(table).primary_key

    def view_of_index(self, index_name):
        return self._index_views.get(index_name)

    def counter_columns(self, index_name):
        """The escrow-counter columns of ``index_name``'s rows: an
        aggregate-shaped view's COUNT/SUM columns for the view's own
        index, ``()`` for every other index."""
        view = self._index_views.get(index_name)
        if view is None or view.name != index_name:
            return ()
        return view.counter_columns()

    def count_column(self, index_name):
        """The COUNT(*) column whose zero marks a row of ``index_name``
        logically deleted, or ``None`` (see :meth:`counter_columns`)."""
        view = self._index_views.get(index_name)
        if view is None or view.name != index_name:
            return None
        return view.count_column

    def rows_as_of(self, table, as_of):
        """The committed rows of ``table`` as of timestamp ``as_of``,
        read from the version chains without locks."""
        rows = []
        for _, record in self.index(table).scan(include_ghosts=True):
            row = record.read_as_of(as_of)
            if row is not None:
                rows.append(row)
        return rows

    def acquire_plan(self, txn, plan):
        """Acquire a key-lock plan through the multi-granularity /
        escalation policy (intention locks injected, escalation applied
        past the configured threshold)."""
        self.escalation.acquire_plan(txn, plan)

    # ==================================================================
    # SQL surface
    # ==================================================================

    def execute(self, sql, txn=None):
        """Execute a SQL script; returns the last statement's result.

        The canonical surface: DDL (``CREATE TABLE``, ``CREATE INDEXED
        VIEW`` — including ``WITH (online = true)``) routes through
        :meth:`create_table` / :meth:`create_view`; DML and ``SELECT``
        compile to the same engine calls the Python API makes (see
        ``docs/SQL.md`` for the statement-to-engine-call contract).

        With ``txn=None`` each DML/SELECT statement autocommits in its
        own transaction; pass an open transaction to run the script
        inside it, each statement atomically (:meth:`_in_statement`).
        DDL always runs outside any transaction — it is not logged and
        cannot roll back.
        """
        if txn is None:
            return self.session().execute(sql)

        def run(fn):
            txn.require_active()
            return self._in_statement(txn, fn)

        return self._execute(sql, run)

    def _in_statement(self, txn, fn):
        """``fn(txn)``: one SQL statement inside the open ``txn``, all or
        nothing — a failure rolls back to a savepoint taken first and the
        transaction stays usable. (Autocommit needs none: it aborts.)"""
        savepoint = self.savepoint(txn)
        try:
            return fn(txn)
        except SimulatedCrash:
            raise
        except BaseException:
            if txn.state is TxnState.ACTIVE:
                self.rollback_to(txn, savepoint)
            raise

    def _execute(self, sql, run):
        """Dispatch each statement of a script; the last one's result."""
        from repro.sql import parse

        result = None
        for stmt in parse(sql):
            result = self._execute_statement(stmt, run)
        return result

    def _execute_statement(self, stmt, run):
        """The one statement dispatcher behind :meth:`execute` and
        :meth:`Session.execute <repro.core.session.Session.execute>`.
        ``run(fn)`` calls ``fn(txn)`` in whatever transaction the caller
        means a DML/SELECT statement to have — an open one, or an
        autocommit one."""
        from repro.sql import ast as sql_ast
        from repro.sql import execute_statement

        if isinstance(stmt, sql_ast.CreateTable):
            return self.create_table(stmt.name, stmt.columns, stmt.primary_key)
        if isinstance(stmt, sql_ast.CreateView):
            return self.create_view(stmt)
        if isinstance(stmt, sql_ast.CheckView):
            return self.check_view_static(stmt.name)
        if isinstance(stmt, sql_ast.Explain):
            return self.explain(stmt.statement)
        return run(lambda txn: execute_statement(self, txn, stmt))

    def _static_analyzer(self):
        from repro.analysis.static import StaticAnalyzer

        return StaticAnalyzer(
            self.catalog,
            strategy=self.config.aggregate_strategy,
            serializable=self.config.serializable,
        )

    def check_view_static(self, name):
        """``CHECK VIEW name``: run the static analyzer over one
        registered view — escrow-eligibility proofs, worst-case lock
        footprints, deadlock-order and predicate diagnostics. Touches
        no data; see ``docs/ANALYSIS.md`` for the diagnostic codes."""
        from repro.analysis.static import trace_static_check

        report = self._static_analyzer().check_view(name)
        trace_static_check(self.tracer, name, "check_view", report.diagnostics)
        return report

    def explain(self, statement):
        """``EXPLAIN <stmt>``: infer the statement's lock footprint
        (including view-maintenance fan-out) and, for SELECT / UPDATE /
        DELETE, the access path its WHERE selects — without executing it.

        ``statement`` is a parsed AST statement; ``EXPLAIN CREATE
        ... VIEW`` analyzes the would-be view against a scratch copy of
        the catalog without registering it.
        """
        from repro.analysis.static import trace_static_check
        from repro.sql import ast as sql_ast
        from repro.sql import compile_view

        analyzer = self._static_analyzer()
        if isinstance(statement, sql_ast.Insert):
            report = analyzer.explain("insert", statement.table)
        elif isinstance(statement, sql_ast.Update):
            report = analyzer.explain("update", statement.table, statement)
        elif isinstance(statement, sql_ast.Delete):
            report = analyzer.explain("delete", statement.table, statement)
        elif isinstance(statement, sql_ast.Select):
            report = analyzer.explain(
                "select", statement.table.name, statement
            )
        elif isinstance(statement, sql_ast.CreateView):
            definition = compile_view(statement, self.catalog)
            scratch = Catalog()
            for schema in self.catalog.tables():
                scratch.add_table(schema)
            for registered in self.catalog.views():
                scratch.add_view(registered)
            scratch.add_view(definition)
            scratch_analyzer = type(analyzer)(
                scratch,
                strategy=self.config.aggregate_strategy,
                serializable=self.config.serializable,
            )
            check = scratch_analyzer.check_view(definition.name)
            from repro.analysis.static.analyzer import ExplainReport

            report = ExplainReport(
                f"create view {definition.name}",
                check.footprints,
                check.diagnostics,
            )
        else:
            raise UnsupportedSqlError(
                f"EXPLAIN has no plan for "
                f"{type(statement).__name__} statements"
            )
        trace_static_check(
            self.tracer, report.label, "explain", report.diagnostics
        )
        return report

    # ==================================================================
    # transactions
    # ==================================================================

    def session(self, isolation="serializable", policy=LockPolicy.NOWAIT):
        """The canonical entry point: a connection-like wrapper with an
        implicit current transaction and autocommit statements (see
        :mod:`repro.core.session`); as a context manager, one transaction.

        >>> db = Database(); _ = db.create_table("t", ("a",), ("a",))
        >>> with db.session() as s:
        ...     s.insert("t", {"a": 1})
        (1,)
        >>> db.read_committed("t", (1,))
        Row(a=1)
        """
        from repro.core.session import Session

        return Session(self, isolation=isolation, policy=policy)

    def begin(self, policy=LockPolicy.NOWAIT, isolation="serializable"):
        """Start and return a bare transaction handle — the primitive
        under :meth:`session`. Whoever lets go of the handle ends it
        through :meth:`settle`; a caller that keeps it uses :meth:`commit`
        / :meth:`abort` / :meth:`ensure_durable` itself."""
        return self._txns.begin(policy=policy, isolation=isolation)

    def begin_system(self):
        return self._txns.begin_system()

    def commit(self, txn):
        """Apply any commit-folded view deltas, then commit."""
        txn.require_active()
        self._apply_commit_folds(txn)
        result = self._txns.commit(txn)
        self._maybe_auto_checkpoint()
        return result

    def settle(self, txn, body=None, failure=None):
        """End ``txn`` for a caller that lets go of the handle — the one
        finish path (``docs/ARCHITECTURE.md`` §7). Runs ``body(txn)`` if
        given, commits unless that resolved the transaction, waits for
        the COMMIT to be durable, returns ``body``'s result. A failure of
        those steps — or one the caller met itself and hands in as
        ``failure``, from ``__exit__`` — aborts a transaction still active.
        Except :class:`~repro.common.SimulatedCrash`: nothing runs on a
        crashed engine; recovery settles the transaction from the log."""
        try:
            if failure is None:
                result = body(txn) if body is not None else None
                if txn.state is TxnState.ACTIVE:
                    self.commit(txn)
                self.ensure_durable(txn)
                return result
        except BaseException as exc:
            failure = exc
            raise
        finally:
            if (
                failure is not None
                and not isinstance(failure, SimulatedCrash)
                and txn.state is TxnState.ACTIVE
            ):
                self.abort(
                    txn, reason=getattr(failure, "reason", None) or "error"
                )

    def abort(self, txn, reason="user"):
        self._txns.abort(txn, reason)
        TxnViewDeltas.clear(txn)

    # ==================================================================
    # two-phase commit: the participant side
    # ==================================================================

    def prepare(self, txn, gid):
        """Phase 1 of two-phase commit: vote yes on this branch of global
        transaction ``gid``.

        Applies any commit-folded view deltas (they must be locked and
        logged before the vote — nothing may fail after it), appends a
        durable :class:`~repro.wal.records.PrepareRecord`, and leaves the
        transaction ACTIVE with every lock held. From here the branch can
        only be finished by the coordinator's decision (``commit`` /
        ``abort`` on the live handle) — or, after a crash, by
        :meth:`resolve_in_doubt` once recovery re-lists it. A flush
        failure here propagates as a retryable fault: the vote never
        became durable, so the coordinator counts it as a no.
        """
        txn.require_active()
        self._apply_commit_folds(txn)
        self.log.append(PrepareRecord(txn.txn_id, gid))
        # The prepare promise is per-branch and unconditional: it cannot
        # wait for a commit group that the decision itself will ride.
        self.log.flush()
        txn.scratch["2pc_gid"] = gid
        self.counters.incr("dist.prepares")
        return txn

    def in_doubt_transactions(self):
        """Post-recovery in-doubt registry: ``txn_id -> gid`` for every
        prepared branch recovery found undecided. Empty on a healthy
        engine — live prepared branches are ordinary active transactions
        until a crash severs them from their handles."""
        return {
            txn_id: info["gid"] for txn_id, info in self._in_doubt.items()
        }

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
            self.log.append(CommitRecord(txn_id, self.clock.tick()))
            self.log.flush_no_faults()
            self._txns.committed_count += 1
            self.counters.incr("dist.in_doubt_committed")
        else:
            self.log.append(AbortRecord(txn_id))
            undo(self.log, self, {txn_id: info["last_lsn"]})
            self.log.flush_no_faults()
            # Re-stamp the reverted rows: recovery's baseline versions
            # carried the in-doubt deltas (prepared = commit-visible), so
            # committed readers need a fresh version without them.
            ts = self.clock.tick()
            for index_name, key in info["resources"]:
                index = self._indexes.get(index_name)
                record = (
                    index.get_record(tuple(key), include_ghost=True)
                    if index is not None else None
                )
                if record is not None:
                    record.stamp_version(ts)
            self._txns.aborted_count += 1
            self.counters.incr("dist.in_doubt_aborted")
        self.locks.release_all(txn_id)
        self.log.forget(txn_id)
        return decision

    def savepoint(self, txn):
        """Mark the current point in ``txn`` for partial rollback: its
        log position and a copy of its commit-folded view deltas."""
        savepoint = self._txns.savepoint(txn)
        savepoint.folded = TxnViewDeltas.copy(txn)
        return savepoint

    def rollback_to(self, txn, savepoint):
        """Undo everything ``txn`` did after ``savepoint``, folded view
        deltas included; the transaction stays active with its locks
        retained."""
        self._txns.rollback_to(txn, savepoint)
        TxnViewDeltas.restore(txn, savepoint.folded)

    @property
    def committed_count(self):
        return self._txns.committed_count

    @property
    def aborted_count(self):
        return self._txns.aborted_count

    def active_transactions(self):
        return self._txns.active_transactions()

    # ==================================================================
    # group commit (durability control)
    # ==================================================================

    def ensure_durable(self, txn):
        """Block until ``txn``'s COMMIT record is durable.

        A no-op without group commit (the commit already flushed). With
        grouping on, a still-pending ticket makes this caller the flush
        leader for the open group. Raises
        :class:`~repro.common.FaultInjected` (retryable) when the
        group was retracted before this member reached durability, and
        :class:`~repro.common.SimulatedCrash` when the flush failure had
        to escalate.
        """
        ticket = getattr(txn, "commit_ticket", None)
        if ticket is None:
            return True
        if ticket.state == CommitTicket.PENDING:
            self.group_commit.flush(leader=txn.txn_id)
        if ticket.state == CommitTicket.DURABLE:
            return True
        raise FaultInjected(ticket.reason or "wal.group_flush", txn.txn_id)

    def group_commit_deadline(self):
        """Tick at which the open commit group must flush (latency
        policy), or ``None``. The simulator's scheduler watches this."""
        return self.group_commit.next_deadline()

    def poll_group_commit(self):
        """Fire the group flush deadline if it has passed; returns True
        when a flush ran."""
        return self.group_commit.poll(self.clock.now())

    def flush_group_commit(self):
        """Force the open commit group out (quiescence / shutdown);
        returns the number of members flushed."""
        return self.group_commit.flush_pending()

    def _on_group_flush_failure(self, tickets, member_ids, fault):
        """The group flush failed before ``tickets`` reached durability.

        Preferred outcome: *retract* the group — discard the unflushed
        log suffix (a bounded, inline micro-crash: ``log.crash()`` plus
        an ARIES restart from the durable prefix) and mark every
        non-durable member aborted-retryable. That is only sound when
        rollback provably reaches everything the group touched: no
        transaction is active, and every unflushed record belongs to a
        group member. Otherwise a reader could have consumed a retracted
        member's writes under early lock release, so the failure
        escalates to :class:`~repro.common.SimulatedCrash` — recovery
        then aborts those dependents wholesale, exactly the
        dependent-abort story the commit-flush comment in
        ``txn/manager.py`` documents.
        """
        if not self._group_retractable(member_ids):
            # The members' COMMIT records die with the volatile log; mark
            # their tickets lost now so nothing waits on them forever.
            now = self.clock.now()
            for ticket in tickets:
                ticket.state = CommitTicket.LOST
                ticket.reason = fault.site
                ticket.resolved_at = now
            self.group_commit.lost_txns += len(tickets)
            self.group_commit.crash_escalations += 1
            self.counters.incr("group_commit.crash_escalations")
            raise SimulatedCrash(fault.site, committed=False) from fault
        self.log.crash()
        self._rebuild_from_log()
        now = self.clock.now()
        for ticket in tickets:
            ticket.state = CommitTicket.RETRACTED
            ticket.reason = fault.site
            ticket.resolved_at = now
            # Idempotent abort paths (scheduler, settle) see the
            # member as already rolled back — which recovery just did.
            ticket.txn.state = TxnState.ABORTED
        self.group_commit.retracted_txns += len(tickets)
        self.counters.incr("group_commit.retractions", len(tickets))
        if self.sanitizers is not None:
            # Redundant with the notice_crash inside _rebuild_from_log
            # for the durability ledger, but the explicit retraction also
            # excises the members from the committed history.
            self.sanitizers.notice_retraction(member_ids)

    def _group_retractable(self, member_ids):
        """True when discarding the unflushed suffix undoes *only* the
        failed group: no active transactions, and every unflushed record
        belongs to a group member."""
        if self._txns.active_transactions():
            return False
        for record in self.log.records(self.log.flushed_lsn + 1):
            if record.txn_id is None or record.txn_id not in member_ids:
                return False
        return True

    def stats(self):
        """One nested dict of everything the engine measures.

        Schema documented in ``docs/OBSERVABILITY.md`` (and pinned by
        ``tests/test_obs.py``): named counters, lock-manager totals,
        transaction outcomes, WAL volume, group-commit batching,
        per-transaction histograms, tracer buffer health, and cleaner
        progress.
        """
        return {
            "counters": self.counters.as_dict(),
            "lock": self.locks.stats.as_dict(),
            "txns": {
                "committed": self.committed_count,
                "aborted": self.aborted_count,
                "active": len(self._txns.active_transactions()),
            },
            "wal": {
                "records": len(self.log),
                "bytes": self.log.bytes_estimate,
                "flushes": self.log.flush_count,
                "flushed_lsn": self.log.flushed_lsn,
                "records_per_flush": self.log.flush_records.as_dict(),
            },
            "group_commit": self.group_commit.stats(),
            "storage": {
                "pool": self._pool.stats(),
                "store_pages": len(self._store),
                "store_writes": self._store.writes,
                "store_reads": self._store.reads,
                "torn_writes": self._store.torn_writes,
            },
            "per_txn": self.metrics.as_dict(),
            "tracer": self.tracer.summary(),
            "cleanup": {
                "backlog": len(self.cleanup),
                "removed": self.cleaner.cleaned,
                "requeued": self.cleaner.requeued,
                "skipped_live": self.cleaner.skipped_live,
            },
            "escalations": self.escalation.escalations,
            "retries": self.retries.as_dict(),
            "faults": self.faults.counts(),
            "integrity": {
                "checks": self._integrity_checks,
                "damage_found": self._integrity_damage,
                "quarantined": self.quarantine.quarantined(),
                "degraded_reads": self.quarantine.degraded_reads,
                "rebuilds": self.quarantine.rebuilds,
            },
        }

    def _apply_commit_folds(self, txn):
        """commit_fold mode: apply the transaction's folded aggregate
        deltas now, one group at a time. An applied group leaves the fold,
        so a re-run after a lock wait applies the rest."""
        nets = txn.scratch.get(TxnViewDeltas.SCRATCH_KEY)
        if not nets:
            return
        for view_name in sorted(nets):
            if self.quarantine.is_quarantined(view_name):
                # Quarantined mid-transaction: deltas accumulated before
                # the quarantine are dropped — the rebuild recomputes.
                continue
            view, net = self.catalog.view(view_name), nets[view_name]
            for group_key, deltas in list(net.items()):
                action = self.maintenance.aggregate.compile_group_delta(
                    self, txn, view, group_key, deltas
                )
                self.acquire_plan(txn, action.lock_plan)
                action.apply(self, txn)
                net.discard(group_key)

    def _on_commit(self, txn, commit_ts):
        """Commit listener: fold escrow deltas into the records the
        accounts reserved against, stamp versions, queue emptied groups."""
        if not txn.touched_records and not txn.escrow_touched:
            return  # a reader
        folded = {}  # record -> {column: committed value}
        emptied = []
        for resource, account in txn.escrow_touched.items():
            index_name, key, column = resource
            new_value = account.commit(txn.txn_id)
            record = account.record
            folded.setdefault(record, {})[column] = new_value
            if (
                new_value == 0
                and column == self.count_column(index_name)
                and not record.is_ghost
            ):
                emptied.append(resource)
        for record, columns in folded.items():
            record.current_row = record.current_row.replace(**columns)
        for index_name, key, _ in sorted(emptied, key=repr):
            self.cleanup.enqueue(index_name, key)
            self.counters.incr("agg.group_emptied_at_commit")
        for record in dict.fromkeys(itertools.chain(txn.touched_records, folded)):
            record.stamp_version(commit_ts)

    # ==================================================================
    # DML: one statement through the table's write plan
    # ==================================================================

    def write_plan(self, table):
        """``table``'s :class:`~repro.views.maintenance.WritePlan`."""
        try:
            return self._plans[table]
        except KeyError:
            raise CatalogError(f"no table named {table!r}") from None

    def insert(self, txn, table, values):
        """Insert one row, maintaining every view on ``table``: its key."""
        return self.write_plan(table).insert(self, txn, (values,))[0]

    def delete(self, txn, table, key):
        """Delete (ghost) the row at ``key``, maintaining views: its row."""
        return self.write_plan(table).delete(self, txn, (key,))[0]

    def update(self, txn, table, key, changes):
        """Update non-key columns of the row at ``key``: the row after."""
        return self.write_plan(table).update(self, txn, ((key, changes),))[0]

    # ==================================================================
    # reads
    # ==================================================================

    def _visible(self, name, row):
        """Zero-count aggregate groups are logically deleted even before
        the ghost cleaner physically removes them."""
        if row is None:
            return None
        count_column = self.count_column(name)
        if count_column is not None and row[count_column] == 0:
            return None
        return row

    def read(self, txn, name, key, for_update=False):
        """Point read of a table or view row.

        Serializable transactions take an S (or U) key lock — which waits
        behind in-flight escrow writers. Snapshot transactions read the
        version chain at their read timestamp, lock-free.

        A quarantined view answers from a fresh recomputation of its base
        tables instead of its (presumed damaged) maintained index.
        """
        txn.require_active()
        key = tuple(key)
        self._deny_building(name)
        if self.quarantine.active and self.quarantine.is_quarantined(name):
            contents = self.quarantine.degraded_contents(
                self.catalog.view(name), txn
            )
            txn.stats.reads += 1
            return contents.get(key)
        index = self.index(name)
        if txn.isolation in ("snapshot", "read_committed"):
            # snapshot: frozen at the transaction's start timestamp.
            # read_committed: latest committed state per statement —
            # never blocks, admits non-repeatable reads.
            as_of = txn.read_ts if txn.isolation == "snapshot" else self.clock.now()
            record = index.get_record(key, include_ghost=True)
            txn.stats.reads += 1
            row = record.read_as_of(as_of) if record is not None else None
            return self._visible(name, row)
        mode = LockMode.U if for_update else LockMode.S
        return self._visible(name, self.locked_row(txn, index, key, mode))

    def locked_row(self, txn, index, key, mode=LockMode.S):
        """The live row at ``key`` of ``index`` under a key lock in
        ``mode`` (a gap fence if absent). One descent serves plan and
        read: ``Transaction.acquire`` returns only on an immediate grant
        (else it raises and the statement is re-planned), so nothing ran
        in between."""
        record = index.get_record(key, include_ghost=True)
        plan = locks_for_point_read(index, key, mode, record)
        self.acquire_plan(txn, plan)
        txn.stats.reads += 1
        if record is None or record.is_ghost:
            return None
        return record.current_row

    def read_exact(self, txn, name, key):
        """Read a view row including the transaction's *own* pending
        escrow deltas. Requires excluding other escrow holders, so the S
        request converts any E the reader holds into X (E ∨ S = X)."""
        txn.require_active()
        key = tuple(key)
        self._deny_building(name)
        if self.quarantine.active and self.quarantine.is_quarantined(name):
            # Quarantine pauses the view's maintenance, so this txn holds
            # no pending escrow deltas against it — the degraded
            # recomputation already is the exact answer.
            contents = self.quarantine.degraded_contents(
                self.catalog.view(name), txn
            )
            txn.stats.reads += 1
            return contents.get(key)
        row = self.locked_row(txn, self.index(name), key)
        if row is None:
            return None
        changes = {}
        for column in self.counter_columns(name):
            account = self.escrow.existing((name, key, column))
            if account is not None:
                changes[column] = account.read_exact(txn.txn_id)
        if changes:
            row = row.replace(**changes)
        return row

    def scan(self, txn, name, key_range=None):
        """Range scan of a table or view, in key order.

        Serializable transactions take key-range locks on every key in
        range plus the fence above it (no phantoms); snapshot transactions
        read versions lock-free.
        """
        txn.require_active()
        if key_range is None:
            key_range = KeyRange.all()
        self._deny_building(name)
        if self.quarantine.active and self.quarantine.is_quarantined(name):
            contents = self.quarantine.degraded_contents(
                self.catalog.view(name), txn
            )
            rows = [
                contents[key] for key in sorted(contents)
                if key_range.contains(key)
            ]
            txn.stats.reads += len(rows)
            return rows
        index = self.index(name)
        if txn.isolation in ("snapshot", "read_committed"):
            as_of = txn.read_ts if txn.isolation == "snapshot" else self.clock.now()
            rows = []
            for _, record in index.scan(key_range, include_ghosts=True):
                row = self._visible(name, record.read_as_of(as_of))
                if row is not None:
                    rows.append(row)
            txn.stats.reads += len(rows)
            return rows
        plan = locks_for_range_scan(
            index, key_range, serializable=self.config.serializable
        )
        self.acquire_plan(txn, plan)
        rows = [
            row for row in index.rows(key_range)
            if self._visible(name, row) is not None
        ]
        txn.stats.reads += len(rows)
        return rows

    def _deny_building(self, name):
        """A view mid online build does not logically exist yet — its
        contents are a moving target until the flip commits."""
        if self.online_builds.active and self.online_builds.is_building(name):
            raise CatalogError(
                f"view {name!r} is being built online and is not yet "
                "readable"
            )

    def read_committed(self, name, key):
        """Latest committed row outside any transaction (convenience for
        tests and examples; equivalent to a fresh snapshot read)."""
        self._deny_building(name)
        if self.quarantine.active and self.quarantine.is_quarantined(name):
            contents = self.quarantine.degraded_contents(
                self.catalog.view(name), None
            )
            return contents.get(tuple(key))
        record = self.index(name).get_record(tuple(key), include_ghost=True)
        if record is None:
            return None
        return self._visible(name, record.read_as_of(self.clock.now()))

    # ==================================================================
    # maintenance utilities
    # ==================================================================

    def run_ghost_cleanup(self, limit=None):
        """Run the ghost cleaner; returns keys physically removed."""
        return self.cleaner.run(limit)

    def refresh_view(self, view_name):
        """Bring a deferred view up to date: one system transaction under
        S on its base tables and X on its indexes. Returns the number of
        corrections applied."""
        return self.deferred.refresh(self, view_name)

    def refresh_all_views(self):
        return self.deferred.refresh_all(self)

    def prune_versions(self):
        """Drop row versions no active snapshot can see; returns count."""
        horizon = self.snapshots.horizon()
        dropped = 0
        for index in self._indexes.values():
            for _, record in index.scan(include_ghosts=True):
                dropped += record.prune_versions(horizon)
        return dropped

    def check_view_consistency(self, view_name):
        """Recompute ``view_name`` from its base tables and diff against
        the maintained contents. Returns a list of discrepancy strings
        (empty = consistent). Only meaningful at quiescence (no active
        transactions)."""
        if self.online_builds.is_building(view_name):
            return []  # not yet logically a view; its flip reconciles it
        from repro.integrity import view_problems

        return view_problems(self, self.catalog.view(view_name))

    def check_all_views(self):
        problems = []
        for view in self.catalog.views():
            problems.extend(self.check_view_consistency(view.name))
        return problems

    # ==================================================================
    # integrity: check, quarantine, rebuild
    # ==================================================================

    def check_integrity(self, quarantine=False):
        """Run the online integrity checker (see
        :mod:`repro.integrity.checker`): B-tree structural invariants of
        every index, every view (secondary indexes included) against
        fresh recomputation, and every clean leaf against its durable
        image. Returns the :class:`~repro.integrity.IntegrityReport`.

        ``quarantine=True`` additionally quarantines every view the
        checker found damaged, flipping its reads to degraded
        recomputation until :meth:`rebuild_view`. Only meaningful at
        quiescence, like :meth:`check_view_consistency`.
        """
        from repro.integrity import check_database

        report = check_database(self)
        self._integrity_checks += 1
        self._integrity_damage += len(report.damage)
        self.counters.incr("integrity.checks")
        if self.tracer.enabled:
            self.tracer.emit(
                "integrity_check", indexes=report.indexes_checked,
                views=report.views_checked, damage=len(report.damage),
            )
        if quarantine:
            for view_name in report.damaged_views():
                if not self.quarantine.is_quarantined(view_name):
                    self.quarantine.quarantine(
                        view_name, reason=report.reason_for(view_name)
                    )
        return report

    def quarantine_view(self, view_name, reason="operator"):
        """Quarantine one view by hand (reads degrade, maintenance
        pauses); :meth:`check_integrity(quarantine=True)` is the
        automatic route."""
        return self.quarantine.quarantine(view_name, reason=reason)

    def rebuild_view(self, view_name):
        """Online rebuild of a quarantined view: one system transaction
        re-materializes it from the base tables under locks and lifts the
        quarantine. Returns the number of corrections applied."""
        return self.quarantine.rebuild(view_name)

    # ==================================================================
    # checkpoints, crash, recovery
    # ==================================================================

    def take_checkpoint(self):
        """Write back the leaves dirty since before the previous
        checkpoint, then write the ARIES checkpoint record.

        The record carries no data, just the active-transaction table
        and the dirty-page table that the write-back left
        (``docs/STORAGE.md`` §4 rule (c)): so redo never starts before
        the penultimate checkpoint, two checkpoints with no write between
        them leave nothing dirty, and a checkpoint writes only the leaves
        that stayed dirty for a whole interval — every dirty leaf, when
        the log holds no checkpoint yet. Recovery seeds from the
        durable page images and redoes only from ``min(recLSN)`` — cost
        bounded by the checkpoint interval, not the log length.
        ``EngineConfig(checkpoint_interval=N)`` takes one automatically
        every N commits.
        """
        self._pool.write_older_than(self._checkpoint_lsn)
        dirty = self._pool.dirty_page_table()
        record = CheckpointRecord(self._checkpoint_att(), dirty)
        self.log.append(record)
        # Runs inside the commit path when auto-triggered: the scheduled
        # flush fault sites belong to statement-level retries, not to a
        # background checkpointer, so they are not consumed here.
        self.log.flush_no_faults()
        self._checkpoint_lsn = record.lsn
        self.counters.incr("checkpoint.taken")
        if self.tracer.enabled:
            self.tracer.emit(
                "checkpoint_taken", lsn=record.lsn,
                active_txns=len(record.active_txns),
                dirty_pages=len(dirty),
            )
        return record

    def _checkpoint_att(self):
        """The active-transaction table a checkpoint must record: live
        transactions plus recovered in-doubt branches — a checkpoint taken
        while a branch awaits its 2PC decision must not let the next
        recovery forget it."""
        att = self._txns.active_txn_table()
        for txn_id, info in self._in_doubt.items():
            att[txn_id] = info["last_lsn"]
        return att

    def _maybe_auto_checkpoint(self):
        interval = self.config.checkpoint_interval
        if interval is None:
            return
        self._commits_since_checkpoint += 1
        if self._commits_since_checkpoint >= interval:
            self._commits_since_checkpoint = 0
            self.take_checkpoint()

    def simulate_crash_and_recover(self):
        """Lose all volatile state, then rebuild from the durable log.

        Returns the :class:`~repro.wal.recovery.RecoveryReport`.

        Re-entrant: if an armed ``recovery.*`` site crashes recovery
        itself (:class:`~repro.common.SimulatedCrash` propagates), call
        this again — repeated partial recoveries converge because undo's
        CLRs are hardened as written. The completed report's
        ``restarts`` counts the interrupted attempts.
        """
        self.log.crash()
        return self._rebuild_from_log()

    def _adopt_log(self, loaded):
        """Replace the log with one read back from disk and recover
        from it.

        Recovery seeds from the durable page store and gates redo on the
        entry LSNs, which is only sound when those pages were written
        under the log being loaded. An engine reloading its *own* dumped
        chain (possibly recycled: the pages then hold what the dropped
        segments said) qualifies — the loaded log ends at this engine's
        own last durable record. Pages from any other history would pass
        for the checkpoint's images and silently gate out redo, so a
        restore into such an engine is refused: restore targets must be
        schema-only.

        The converse is refused too: a *recycled* chain (it no longer
        starts at LSN 1) needs the pages its dropped segments were
        folded into, and those live only in the engine that recycled it.
        Loaded into an engine without pages it would recover the log's
        tail and silently lose everything before it.
        """
        if len(self._store) and not self._ends_like_own_log(loaded):
            raise StorageError(
                f"cannot restore a WAL into this engine: its page store "
                f"already holds {len(self._store)} page(s) written under "
                f"a different log, which recovery would mistake for the "
                f"loaded log's durable images; restore into a "
                f"schema-only engine"
            )
        first = next(loaded.records(), None)
        if first is not None and first.lsn > 1 and not len(self._store):
            raise StorageError(
                f"cannot restore this WAL into an engine without durable "
                f"pages: the log was recycled and starts at LSN "
                f"{first.lsn}, and what its dropped records said lives "
                f"only in the page store of the engine that recycled it; "
                f"restore the unrecycled chain"
            )
        self.log = loaded
        return self._rebuild_from_log()

    def _ends_like_own_log(self, loaded):
        tail = loaded.tail_lsn()
        if not len(loaded) or tail != self.log.flushed_lsn:
            return False
        return (
            loaded.record_at(tail).checksum()
            == self.log.record_at(tail).checksum()
        )

    def dump_wal_segments(self, directory):
        """Persist the flushed log prefix as a chain of fixed-size
        segment files with CRC trailers (``wal.NNNNN.seg``; see
        :mod:`repro.wal.segments`). Returns the written paths."""
        self.log.flush()
        return dump_segments(
            self.log, directory,
            segment_bytes=self.config.wal_segment_bytes,
            faults=self.faults,
        )

    def load_wal_segments_and_recover(self, directory):
        """Rebuild all state from a segment chain written by
        :meth:`dump_wal_segments`.

        DDL is not logged (see :meth:`create_view`), so the receiving
        database must already have the same tables and views registered
        — build the schema, load no rows, then restore (see
        :meth:`_adopt_log`). A broken chain (bad trailer CRC, lost
        segment) is truncated at the break and the loss lands in the
        salvage report."""
        return self._adopt_log(load_segments(
            directory, checksums=self.config.wal_checksums
        ))

    def wal_recycle_floor(self):
        """First LSN the log must retain — the ARIES truncation point:
        ``min(checkpoint LSN, min recLSN over dirty pages, first LSN of
        any active transaction, first LSN of any in-doubt branch)``.
        Without a checkpoint nothing is recyclable (returns 1).

        The in-doubt clause is what lets segment recycling coexist with
        two-phase commit: a prepared branch whose decision was lost may
        wait arbitrarily long for resolution, and its records (including
        the PREPARE itself) must survive recycling or the branch could
        never be resolved after another crash."""
        checkpoint = self.log.latest_checkpoint()
        if checkpoint is None:
            return 1
        candidates = [checkpoint.lsn]
        if checkpoint.dirty_pages:
            candidates.append(min(checkpoint.dirty_pages.values()))
        dirty = self._pool.dirty_page_table()
        if dirty:
            candidates.append(min(dirty.values()))
        active = set(self._txns.active_txn_table())
        if active:
            for record in self.log.records():
                if record.txn_id in active:
                    candidates.append(record.lsn)
                    break
        for info in self._in_doubt.values():
            if info["first_lsn"] is not None:
                candidates.append(info["first_lsn"])
        return min(candidates)

    def recycle_wal_segments(self, directory):
        """Delete dumped segments that lie wholly below
        :meth:`wal_recycle_floor`; returns the removed paths."""
        return recycle_segments(directory, self.wal_recycle_floor())

    def _rebuild_from_log(self):
        restarted = self._recovery_attempts > 0
        self._recovery_attempts += 1
        if restarted:
            self.counters.incr("recovery.restarts")
            if self.tracer.enabled:
                self.tracer.emit(
                    "recovery_restarted", attempt=self._recovery_attempts
                )
        if self.sanitizers is not None:
            # Before recovery appends anything: the volatile suffix is
            # gone, LSNs legally rewind to flushed_lsn + 1, and commit-
            # visible-but-not-durable transactions are rolled back.
            self.sanitizers.notice_crash()
        # Salvage before anything reads the log: a corrupt record's
        # payload (even its txn_id) cannot be trusted. On re-entry after a
        # mid-recovery crash the log is already clean; the first attempt's
        # report is carried in _pending_salvage so the loss still lands on
        # the completed report.
        fresh = salvage(self.log, verify=self.log.checksums)
        if fresh is not None:
            self._pending_salvage = fresh
            self.counters.incr("wal.salvage")
            if self.tracer.enabled:
                self.tracer.emit(
                    "wal_salvage",
                    truncated_lsn=fresh["truncated_lsn"],
                    dropped=fresh["dropped_records"],
                    lost_commits=fresh["lost_commits"],
                    tail_garbage=fresh["tail_garbage"],
                )
            if fresh["lost_commits"] and self.config.salvage_policy == "strict":
                # The log is already truncated (garbage must never be
                # replayed); the loss is in the raised error. A subsequent
                # recovery call proceeds and still carries the report.
                raise WalCorruptionError(
                    "durable log corrupt: committed transactions "
                    f"{fresh['lost_commits']} lost past LSN "
                    f"{fresh['truncated_lsn']}",
                    salvage=fresh,
                )
        max_txn = 0
        max_commit_ts = 0
        for record in self.log.records():
            if record.txn_id is not None:
                max_txn = max(max_txn, record.txn_id)
            commit_ts = getattr(record, "commit_ts", None)
            if commit_ts is not None:
                max_commit_ts = max(max_commit_ts, commit_ts)
        self.clock.advance_to(max_commit_ts)
        self._wire_volatile(max(self._txns._next_txn_id, max_txn + 1))
        gate, pages_loaded = self._seed_from_store()
        report = recover(
            self.log, self, faults=self.faults,
            salvage_report=self._pending_salvage, gate=gate,
        )
        report.pages_loaded = pages_loaded
        self._register_in_doubt(report.in_doubt)
        # Settle interrupted online builds before versions are stamped:
        # a vanished build's view must be gone before _post_recovery
        # walks the index registry.
        resolve_after_recovery(self)
        self._post_recovery()
        self._attach_page_store(
            leaf for index in self._indexes.values() for leaf in index.leaves()
        )
        report.restarts = self._recovery_attempts - 1
        self._recovery_attempts = 0
        self._pending_salvage = None
        self.counters.incr("recovery.runs")
        return report

    def _register_in_doubt(self, in_doubt):
        """Rebuild the in-doubt registry from recovery's verdict and
        re-acquire each branch's locks on the fresh lock manager.

        Recovery repeated the branches' history, so their effects are in
        the recovered state; what keeps that sound is that *only* the
        rows they touched are blocked — IX on each touched index, X on
        each touched key — until :meth:`resolve_in_doubt` settles them.
        Runs single-threaded before transactions restart, so every
        request is granted immediately."""
        self._in_doubt = {}
        for txn_id in sorted(in_doubt):
            last_lsn = self.log.last_lsn_of(txn_id)
            gid = None
            first_lsn = last_lsn
            resources = set()
            lsn = last_lsn
            while lsn is not None:
                record = self.log.record_at(lsn)
                first_lsn = record.lsn
                if isinstance(record, PrepareRecord):
                    gid = record.gid
                index_name = getattr(record, "index_name", None)
                if index_name is not None:
                    resources.add((index_name, tuple(record.key)))
                lsn = record.prev_lsn
            self._in_doubt[txn_id] = {
                "gid": gid,
                "first_lsn": first_lsn,
                "last_lsn": last_lsn,
                "resources": sorted(resources, key=repr),
            }
            for index_name, key in sorted(resources, key=repr):
                self.locks.request(
                    txn_id, table_resource(index_name), LockMode.IX
                )
                self.locks.request(
                    txn_id, key_resource(index_name, key), LockMode.X
                )

    def _wire_volatile(self, next_txn_id=1):
        """Build everything a crash destroys around what survives one
        (log, catalog, page store, group-commit coordinator): how an
        engine starts and how recovery begins."""
        self.locks = LockManager(
            tracer=self.tracer, clock=self.clock,
            timeout=self.config.lock_wait_timeout, faults=self.faults,
        )
        self.latches = LatchSet()
        self.escrow = EscrowRegistry()
        self.snapshots = SnapshotRegistry(self.clock)
        self.cleanup = CleanupQueue()
        self.cleaner = GhostCleaner(self)
        self.log.tracer = self.tracer  # a loaded WAL starts with NULL_TRACER
        self.log.faults = self.faults
        self._txns = TransactionManager(
            self.clock, self.log, self.locks, self.escrow, self.snapshots,
            undo_target=self, commit_listener=self._on_commit,
            group_commit=self.group_commit, tracer=self.tracer,
            metrics=self.metrics, faults=self.faults,
            next_txn_id=next_txn_id,
        )
        # A crash destroys the open commit group: its members' COMMIT
        # records were in the lost suffix, so recovery rolls them back as
        # losers; anyone still waiting on a ticket learns it is lost.
        # (During a group *retraction* the pending list is already empty,
        # so this is a no-op there.)
        self.group_commit.abandon_pending()
        self.group_commit.log = self.log
        self.log.flush_listener = self.group_commit.on_flushed
        # The dirty-leaf table is volatile — gone with the crash — and
        # the new one writes nothing until recovery's last step attaches
        # it to a fresh store: the old store survives and recovery only
        # reads it.
        self._pool = BufferPool(
            capacity=self.config.buffer_pool_frames, log=self.log,
            tracer=self.tracer, page_size=self.config.page_size,
            page_ids=self._page_ids, image_row=self._image_row,
        )
        checkpoint = self.log.latest_checkpoint()
        self._checkpoint_lsn = checkpoint.lsn if checkpoint is not None else None
        self._commits_since_checkpoint = 0
        for name, index in list(self._indexes.items()):
            self._indexes[name] = self._new_index(name, index.key_columns)
        self._replan(schema.name for schema in self.catalog.tables())

    def _seed_from_store(self):
        """Recovery's one read of the page store: insert the newest live
        entry per key into the fresh indexes and return ``(gate,
        pages_loaded)`` — the table of per-key winners that gates redo.

        The gate is ``None`` when nothing vouches for the store: a torn
        page, or entries written under log records the salvage pass has
        just cut away (their effects would survive the transactions the
        report calls lost). Recovery then replays the whole log ungated
        — which needs the whole log. The store is not read at all when
        the log holds the whole history and no checkpoint: replaying it
        from LSN 1 rebuilds every key without decoding an image."""
        first = next(self.log.records(), None)
        if self.log.latest_checkpoint() is None and (
            first is None or first.lsn == 1
        ):
            return None, 0
        gate, loaded, torn = durable_winners(self._store)
        if torn:
            self.counters.incr("storage.torn_pages", torn)
        cut = (self._pending_salvage or {}).get("truncated_lsn")
        if gate and cut is not None and any(
            lsn >= cut for lsn, _, _ in gate.values()
        ):
            if first is not None and first.lsn > 1:
                raise WalCorruptionError(
                    f"durable pages were written under log records lost "
                    f"past LSN {cut}, and the log, recycled, starts at LSN "
                    f"{first.lsn}: neither the pages nor a full replay can "
                    f"vouch for a state",
                    salvage=self._pending_salvage,
                )
            gate = None
        indexes = self._indexes
        for (index_name, key), (lsn, row, is_ghost) in (gate or {}).items():
            # the cleaner's work list is rebuilt by _post_recovery
            if row is not None and index_name in indexes:
                indexes[index_name].set_entry(key, (Row(row), is_ghost), lsn)
        return gate, loaded

    def _attach_page_store(self, leaves=()):
        """A brand-new page store under the dirty-leaf table, holding one
        image per non-empty leaf of ``leaves`` — how an engine starts (no
        leaves), and recovery's last step (every leaf of the recovered
        indexes, ``docs/STORAGE.md`` §4 rule (d)): whatever the old store
        said, the durable pages and the recovered state agree from here
        on."""
        self._store = PageStore(faults=self.faults)
        self._pool.attach(self._store, leaves)

    def _image_row(self, index_name):
        """How a row of ``index_name`` is written back: ``None`` (as it
        is) or, for an escrow-maintained view, a function adding the
        pending deltas of its counters to its committed row — an image
        says what the log says up to the row's LSN, and the log holds
        those deltas (``docs/STORAGE.md`` §4 rule (a))."""
        columns = self.counter_columns(index_name)
        if not columns:
            return None

        def row_of(key, row):
            changes = {}
            for column in columns:
                account = self.escrow.existing((index_name, key, column))
                if account is not None and account.has_pending():
                    changes[column] = (
                        row[column] + account.read_inclusive() - account.committed
                    )
            return row.replace(**changes) if changes else row

        return row_of

    def _post_recovery(self):
        """Stamp baseline versions and rebuild the cleanup work list."""
        ts = self.clock.tick()
        for name, index in self._indexes.items():
            count_column = self.count_column(name)
            for key, record in index.scan(include_ghosts=True):
                record.stamp_version(ts)
                if record.is_ghost or (
                    count_column is not None
                    and record.current_row[count_column] == 0
                ):
                    self.cleanup.enqueue(name, key)

    # ==================================================================
    # RecoveryTarget implementation (also used by online rollback)
    # ==================================================================

    def set_entry(self, index_name, key, entry, lsn):
        index = self._indexes.get(index_name)
        if index is None:
            return
        key = tuple(key)
        was_ghost = index.is_ghost(key)
        index.set_entry(key, entry, lsn)
        # The cleaner's list in step: a ghost is a candidate, a revived
        # one is not; live -> live may be a zero-count group waiting there.
        if entry is not None and entry[1]:
            self.cleanup.enqueue(index_name, key)
        elif entry is not None and was_ghost:
            self.cleanup.cancel(index_name, key)

    def add_deltas(self, index_name, key, deltas, lsn):
        index = self._indexes.get(index_name)
        if index is None:
            return
        record = index.get_record(tuple(key), include_ghost=True)
        if record is None:
            return
        row = record.current_row
        changes = {c: row[c] + d for c, d in deltas.items()}
        record.current_row = row.replace(**changes)
        index.stamp(record, lsn)

    def stamp(self, index_name, key, lsn):
        """Online rollback's escrow half: an unreserve at ``lsn`` (a CLR)
        moved what the row's image holds without changing the row."""
        index = self._indexes.get(index_name)
        record = None if index is None else index.get_record(
            tuple(key), include_ghost=True
        )
        if record is not None:
            index.stamp(record, lsn)
