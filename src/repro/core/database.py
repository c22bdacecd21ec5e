"""The engine facade: schema, transactions, DML, reads — and the wiring.

:class:`Database` is the public API a downstream user programs against.
The canonical surface is SQL (``docs/SQL.md``)::

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

The engine is components wired together (``docs/ARCHITECTURE.md`` §2),
each owning its state and the decisions about it, reached directly:
``db.indexes`` (:mod:`repro.core.indexes`), ``db.restart``
(:mod:`repro.core.restart`), ``db.participant``
(:mod:`repro.core.participant`), ``db.group_commit``, ``db.quarantine``,
``db.deferred``, the lock and transaction managers. What stays here is
the transaction lifecycle, the DML entry points and the one read path.

Every statement follows the lock-first / mutate-second discipline (see
:mod:`repro.views.actions`): the statement compiles into actions, all lock
plans are acquired, then all mutations apply and log. Under the
cooperative policy a lock wait aborts the statement run with
:class:`~repro.txn.transaction.WouldWait` and the simulator re-runs it.
"""

from repro.catalog import Catalog, TableSchema
from repro.common import (
    CatalogError,
    DeterministicRng,
    FaultInjected,
    LogicalClock,
    SimulatedCrash,
    UnsupportedSqlError,
)
from repro.common.keys import KeyRange
from repro.faults import NULL_INJECTOR
from repro.locking import LockManager, LockMode, escrow
from repro.locking.keyrange import locks_for_point_read, locks_for_range_scan
from repro.obs import Counters, EngineMetrics, RetryStats, Tracer
from repro.sql import execute_script, in_statement
from repro.txn import LockPolicy, SnapshotRegistry, TransactionManager
from repro.txn.transaction import TxnState
from repro.views.deferred import DeferredMaintainer
from repro.views.definition import SecondaryIndex
from repro.views.delta import TxnViewDeltas
from repro.views.maintenance import MaintenanceEngine
from repro.views.online import OnlineBuildRegistry, ViewBuilder
from repro.core.cleanup import CleanupQueue, GhostCleaner
from repro.core.config import EngineConfig
from repro.core.indexes import Indexes
from repro.core.participant import Participant
from repro.core.restart import Restart
from repro.wal import CommitTicket, GroupCommitCoordinator, LogManager


class Database:
    """An in-memory transactional engine with indexed views."""

    def __init__(self, config=None):
        self.config = config or EngineConfig()
        self.clock = LogicalClock()
        self.tracer = Tracer(clock=self.clock)  # disabled until .enable()
        self.metrics = EngineMetrics()
        self.faults = NULL_INJECTOR  # see install_fault_injector()
        self.retries = RetryStats()
        #: the jitter stream of ``Session.run``'s backoff
        self.retry_rng = DeterministicRng(self.config.retry_seed)
        self.catalog = Catalog()
        self.log = LogManager(
            tracer=self.tracer, faults=self.faults,
            layouts=self.catalog.layouts(),
        )
        self.counters = Counters()
        self.deferred = DeferredMaintainer(self.clock)
        self.maintenance = MaintenanceEngine(
            self.catalog, aggregate_strategy=self.config.aggregate_strategy
        )
        self.restart = Restart(self)
        self.group_commit = GroupCommitCoordinator(
            self.log, self.clock, self.counters, self.restart.retract,
            policy=self.config.group_commit,
            size=self.config.group_commit_size,
            latency=self.config.group_commit_latency,
            tracer=self.tracer, faults=self.faults,
        )
        self.indexes = Indexes(self)
        self.participant = Participant(self)
        self._wire_volatile()
        self.indexes.attach_store()
        from repro.integrity import QuarantineManager

        #: damaged-view registry; reads on quarantined views degrade to
        #: recomputation and their maintenance pauses until rebuild.
        self.quarantine = QuarantineManager(self)
        #: views mid online build; their maintenance is suppressed (the
        #: build's flip reconciles them) and reads refuse them.
        self.online_builds = OnlineBuildRegistry()
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

    def _wire_volatile(self, next_txn_id=1):
        """Build everything a crash destroys around what survives one
        (log, catalog, page store, group-commit coordinator): how an
        engine starts and how recovery begins."""
        self.locks = LockManager(
            tracer=self.tracer, clock=self.clock,
            timeout=self.config.lock_wait_timeout, faults=self.faults,
        )
        self.snapshots = SnapshotRegistry(self.clock)
        self.cleanup = CleanupQueue()
        self.cleaner = GhostCleaner(self)
        self.log.tracer = self.tracer  # a loaded WAL starts with NULL_TRACER
        self.log.faults = self.faults
        self._txns = TransactionManager(
            self.clock, self.log, self.locks, self.snapshots,
            undo_target=self.indexes, commit_listener=self._on_commit,
            group_commit=self.group_commit, tracer=self.tracer,
            metrics=self.metrics, faults=self.faults,
            next_txn_id=next_txn_id,
        )
        self.group_commit.attach(self.log, self._txns)
        self.indexes.renew()

    def install_fault_injector(self, injector):
        """Thread a :class:`~repro.faults.FaultInjector` through every
        fault site; ``None`` restores the inert null injector. It
        survives :meth:`simulate_crash_and_recover` — flaky hardware does
        too — so the ``recovery.*`` crash sites can interrupt recovery
        itself (re-enter it); the retryable flush/append sites are never
        evaluated from inside recovery.
        """
        self.faults = injector if injector is not None else NULL_INJECTOR
        self.faults.tracer = self.tracer
        self.log.faults = self.faults
        self.locks.faults = self.faults
        self._txns.faults = self.faults
        self.group_commit.faults = self.faults
        self.indexes.store.faults = self.faults
        return self.faults

    # ==================================================================
    # schema
    # ==================================================================

    def create_table(self, name, columns, primary_key):
        """Register a table and build its primary-key index."""
        schema = self.catalog.add_table(TableSchema(name, columns, primary_key))
        self.indexes.add_table(schema)
        return schema

    def create_secondary_index(self, table, name, columns, unique=False):
        """Create the secondary index ``table#name`` on ``columns`` — a
        :class:`~repro.views.definition.SecondaryIndex` view, built and
        maintained like any other; ``unique=True`` enforces the
        constraint. Returns the definition."""
        index = SecondaryIndex(table, name, columns, unique=unique)
        return self.create_view(index, unique=unique)

    def create_view(self, view, *, unique=True, deferred=False,
                    online=False):
        """Register a view, build its index(es), and fill it over any
        existing base data. Returns the definition.

        ``view`` is a :class:`~repro.views.definition.ViewDefinition`
        (unset primary-key columns come from the catalog) or a ``CREATE
        [UNIQUE] INDEXED VIEW`` SQL string, whose ``UNIQUE`` and ``WITH
        (...)`` options override the keyword arguments. ``unique``
        records the key-uniqueness of the view index (enforced for a
        :class:`~repro.views.definition.SecondaryIndex`);
        ``deferred=True`` leaves this view unmaintained by statements
        (refresh with :meth:`refresh_view`); ``online=True`` builds it
        without blocking writers — a snapshot fill, then a short locked
        flip — else the build holds S on the base tables throughout
        (:mod:`repro.views.online`). DDL is not logged; the fill is, in
        one system transaction, so a crash leaves the view complete or
        absent. A view that computes empty logs nothing.
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

    # ==================================================================
    # lookups other layers use
    # ==================================================================

    def index(self, name):
        return self.indexes.index(name)

    def index_names(self):
        return self.indexes.names()

    def acquire_plan(self, txn, plan):
        """Acquire a key-lock plan through the multi-granularity /
        escalation policy (intention locks injected, escalation applied
        past the configured threshold)."""
        self.escalation.acquire_plan(txn, plan)

    # ==================================================================
    # SQL surface
    # ==================================================================

    def execute(self, sql, txn=None, params=()):
        """Execute a SQL script; returns the last statement's result.

        The canonical surface: DDL routes through :meth:`create_table` /
        :meth:`create_view`, DML and ``SELECT`` compile to the engine
        calls the Python API makes (``docs/SQL.md``). With ``txn=None``
        each DML/SELECT statement autocommits; pass an open transaction
        to run the script inside it, each statement atomically
        (:func:`repro.sql.in_statement`). DDL runs outside any
        transaction. The ``i``-th ``?`` placeholder stands for
        ``params[i]``.
        """
        if txn is None:
            return self.session().execute(sql, params)

        def run(fn):
            txn.require_active()
            return in_statement(self, txn, fn)

        return execute_script(self, sql, run, params)

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
        self.restart.after_commit()
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

    def ensure_durable(self, txn):
        """Block until ``txn``'s COMMIT record is durable: a pending
        ticket makes this caller the open group's flush leader. Raises
        :class:`~repro.common.FaultInjected` (retryable) when the group
        was retracted first, :class:`~repro.common.SimulatedCrash` when
        the flush failure had to escalate."""
        ticket = getattr(txn, "commit_ticket", None)
        if ticket is None:
            return True
        if ticket.state == CommitTicket.PENDING:
            self.group_commit.flush(leader=txn.txn_id)
        if ticket.state == CommitTicket.DURABLE:
            return True
        raise FaultInjected(ticket.reason or "wal.group_flush", txn.txn_id)

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
        """Commit listener: fold the transaction's escrow deltas into the
        records holding them, stamp versions, queue emptied groups."""
        emptied, horizon = [], self.snapshots.horizon()
        for record in dict.fromkeys(txn.touched_records):
            view = escrow.commit(record, txn.txn_id)
            if (
                view is not None
                and record.current_row[view.count_column] == 0
                and not record.is_ghost
            ):
                emptied.append((view.name, record.key))
            record.stamp_version(commit_ts, horizon)
        for index_name, key in sorted(emptied, key=repr):
            self.cleanup.enqueue(index_name, key)
            self.counters.incr("agg.group_emptied_at_commit")

    def stats(self):
        """One nested dict of everything the engine measures (schema:
        ``docs/OBSERVABILITY.md``, pinned by ``tests/test_obs.py``)."""
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
            "storage": self.indexes.stats(),
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
                "checks": self.counters.get("integrity.checks"),
                "damage_found": self._integrity_damage,
                "quarantined": self.quarantine.quarantined(),
                "degraded_reads": self.counters.get("integrity.degraded_reads"),
                "rebuilds": self.counters.get("integrity.rebuilds"),
            },
        }

    # ==================================================================
    # DML: one statement through the table's write plan
    # ==================================================================

    def insert(self, txn, table, values):
        """Insert one row, maintaining every view on ``table``: its key."""
        return self.indexes.write_plan(table).insert(self, txn, (values,))[0]

    def delete(self, txn, table, key):
        """Delete (ghost) the row at ``key``, maintaining views: its row."""
        return self.indexes.write_plan(table).delete(self, txn, (key,))[0]

    def update(self, txn, table, key, changes):
        """Update non-key columns of the row at ``key``: the row after."""
        return self.indexes.write_plan(table).update(
            self, txn, ((key, changes),)
        )[0]

    # ==================================================================
    # reads: one decision, made once per read
    # ==================================================================

    def _route(self, txn, name):
        """How a read of ``name`` by ``txn`` (``None``: a committed read
        outside any transaction) is answered — ``(index, as_of,
        contents)``. A view mid online build is refused (it does not
        logically exist until its flip commits); a quarantined view
        answers from ``contents``, a recomputation of its base tables; a
        snapshot, read-committed or committed read takes the versions as
        of ``as_of``, lock-free; everything else is a locked read
        (``as_of`` ``None``)."""
        if self.online_builds.active and self.online_builds.is_building(name):
            raise CatalogError(
                f"view {name!r} is being built online and is not yet "
                "readable"
            )
        if txn is None or txn.isolation == "read_committed":
            as_of = self.clock.now()
        elif txn.isolation == "snapshot":
            as_of = txn.read_ts
        else:
            as_of = None
        if self.quarantine.active and self.quarantine.is_quarantined(name):
            contents = self.quarantine.degraded_contents(
                self.catalog.view(name), txn, as_of
            )
            return None, as_of, contents
        return self.indexes.index(name), as_of, None

    def _visible(self, name, row):
        """Zero-count aggregate groups are logically deleted even before
        the ghost cleaner physically removes them."""
        if row is None:
            return None
        count_column = self.indexes.count_column(name)
        if count_column is not None and row[count_column] == 0:
            return None
        return row

    def read(self, txn, name, key, for_update=False):
        """Point read of a table or view row: under an S (or U) key lock
        for a serializable transaction — which waits behind in-flight
        escrow writers — else lock-free from the version chain (see
        :meth:`_route`)."""
        txn.require_active()
        key = tuple(key)
        index, as_of, contents = self._route(txn, name)
        if contents is not None:
            txn.stats.reads += 1
            return contents.get(key)
        if as_of is not None:
            txn.stats.reads += 1
            return self._row_as_of(name, index, key, as_of)
        mode = LockMode.U if for_update else LockMode.S
        return self._visible(name, self.locked_row(txn, index, key, mode))

    def read_committed(self, name, key):
        """Latest committed row outside any transaction (convenience for
        tests and examples; equivalent to a fresh snapshot read)."""
        key = tuple(key)
        index, as_of, contents = self._route(None, name)
        if contents is not None:
            return contents.get(key)
        return self._row_as_of(name, index, key, as_of)

    def _row_as_of(self, name, index, key, as_of):
        record = index.get_record(key, include_ghost=True)
        if record is None:
            return None
        return self._visible(name, record.read_as_of(as_of))

    def locked_row(self, txn, index, key, mode=LockMode.S):
        """The live row at ``key`` of ``index`` under a key lock in
        ``mode`` (a gap fence if absent)."""
        record = self.locked_record(txn, index, key, mode)
        return None if record is None else record.current_row

    def locked_record(self, txn, index, key, mode=LockMode.S):
        """:meth:`locked_row`'s record. One descent serves plan and read:
        ``Transaction.acquire`` returns only on an immediate grant (else
        it raises and the statement is re-planned), so nothing ran in
        between."""
        at = index.locate(key)
        self.acquire_plan(txn, locks_for_point_read(index, key, at, mode=mode))
        txn.stats.reads += 1
        return at.live()

    def read_exact(self, txn, name, key):
        """Read a view row including the transaction's *own* pending
        escrow deltas: always a locked read, whose S converts any E the
        reader holds into X (E ∨ S = X). A quarantined view pauses its
        maintenance, so its recomputation is the exact answer."""
        txn.require_active()
        key = tuple(key)
        index, _, contents = self._route(txn, name)
        if contents is not None:
            txn.stats.reads += 1
            return contents.get(key)
        record = self.locked_record(txn, index, key)
        return None if record is None else escrow.exact_row(record, txn.txn_id)

    def scan(self, txn, name, key_range=None):
        """Range scan of a table or view, in key order: serializable
        transactions take key-range locks on every key in range plus the
        fence above it (no phantoms), the others read versions."""
        txn.require_active()
        rows = [row for _, row in self._scan(txn, name, key_range)]
        txn.stats.reads += len(rows)
        return rows

    def scan_committed(self, name, key_range=None):
        """``(key, row)`` of the latest committed rows of a table or view
        in key order, outside any transaction: :meth:`scan`'s committed
        form, as :meth:`read_committed` is :meth:`read`'s."""
        return self._scan(None, name, key_range)

    def _scan(self, txn, name, key_range):
        """``(key, row)`` of the visible rows in ``key_range`` (``None``:
        every key)."""
        index, as_of, contents = self._route(txn, name)
        if contents is not None:
            return [
                (key, contents[key]) for key in sorted(contents)
                if key_range is None or key_range.contains(key)
            ]
        count = self.indexes.count_column(name)
        if as_of is not None:
            return [
                (key, row)
                for key, record in index.scan(key_range, include_ghosts=True)
                if (row := record.read_as_of(as_of)) is not None
                and (count is None or row[count] != 0)
            ]
        if key_range is None:
            key_range = KeyRange.all()
        # One walk serves plan and read, as in locked_record: a wait raises
        # before a row is read, and the re-run walks and plans afresh.
        items = list(index.scan(key_range, include_ghosts=True))
        self.acquire_plan(txn, locks_for_range_scan(
            index, key_range, serializable=self.config.serializable,
            items=items,
        ))
        return [
            (key, record.current_row) for key, record in items
            if not record.is_ghost
            and (count is None or record.current_row[count] != 0)
        ]

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
        pk = self.catalog.table(table).primary_key
        rows = (
            self.read(txn, table, entry.key(pk))
            for entry in self.scan(txn, name, probe)
        )
        return [row for row in rows if row is not None]

    # ==================================================================
    # maintenance utilities and integrity
    # ==================================================================

    def run_ghost_cleanup(self, limit=None):
        """Run the ghost cleaner; returns keys physically removed."""
        return self.cleaner.run(limit)

    def refresh_view(self, view_name):
        """Bring a deferred view up to date (:mod:`repro.views.deferred`);
        returns the number of corrections applied."""
        return self.deferred.refresh(self, view_name)

    def refresh_all_views(self):
        return self.deferred.refresh_all(self)

    def check_view_consistency(self, view_name):
        """Discrepancies between ``view_name`` and a recomputation of its
        base tables, as strings (empty = consistent); at quiescence."""
        if self.online_builds.is_building(view_name):
            return []  # not yet logically a view; its flip reconciles it
        from repro.integrity import view_problems

        return view_problems(self, self.catalog.view(view_name))

    def check_all_views(self):
        problems = []
        for view in self.catalog.views():
            problems.extend(self.check_view_consistency(view.name))
        return problems

    def check_integrity(self, quarantine=False):
        """Run the online integrity checker
        (:mod:`repro.integrity.checker`: B-tree invariants, views against
        recomputation, clean leaves against their images) at quiescence;
        returns the :class:`~repro.integrity.IntegrityReport`.
        ``quarantine=True`` also quarantines every damaged view, its
        reads degraded to recomputation until :meth:`rebuild_view`.
        """
        from repro.integrity import check_database

        report = check_database(self)
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
        """Quarantine one view by hand: reads degrade, maintenance
        pauses (:mod:`repro.integrity.quarantine`)."""
        return self.quarantine.quarantine(view_name, reason=reason)

    def rebuild_view(self, view_name):
        """Rebuild a quarantined view online and lift the quarantine;
        returns the number of corrections applied."""
        return self.quarantine.rebuild(view_name)

    # ==================================================================
    # checkpoints, crash, recovery (the driver is repro.core.restart)
    # ==================================================================

    def take_checkpoint(self):
        """A fuzzy checkpoint (:mod:`repro.core.restart`); returns its
        record. Auto-checkpoints come through here too."""
        return self.restart.checkpoint()

    def simulate_crash_and_recover(self):
        """Lose all volatile state, then rebuild from the durable log;
        returns the :class:`~repro.wal.recovery.RecoveryReport`. After a
        ``recovery.*`` crash inside it, call it again."""
        return self.restart.crash_and_recover()

    def dump_wal_segments(self, directory):
        """Persist the flushed log as segment files; returns the paths."""
        return self.restart.dump_segments(directory)

    def load_wal_segments_and_recover(self, directory):
        """Rebuild all state from a segment chain written by
        :meth:`dump_wal_segments` into a schema-only engine."""
        return self.restart.load_segments_and_recover(directory)
