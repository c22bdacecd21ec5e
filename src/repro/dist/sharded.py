"""A range-sharded engine fleet with two-phase commit over a faultable
message transport.

:class:`ShardedDatabase` stamps out N fully independent
:class:`~repro.core.database.Database` instances — each with its own
lock manager, buffer pool, WAL, and recovery — and
routes statements to them by a :class:`~repro.dist.partitioner.RangePartitioner`
over the primary key. Views are co-partitioned with their base table:
partition i maintains view rows only for the base rows it owns, so an
aggregate group whose members span partitions exists as one
**sub-counter row per partition**, folded at read time
(:meth:`ShardedDatabase.read_folded`). The paper's escrow argument makes
this sound: COUNT/SUM sub-counters commute across partitions exactly as
escrow deltas commute across transactions.

All coordinator → partition traffic — DML routing, prepare, decide,
recovery probes, heartbeats — travels through the
:class:`~repro.dist.net.Network` transport, where the ``net.*`` fault
sites can lose, duplicate, reorder, and delay messages. The transport
retries with seeded backoff; the partition-side
:class:`~repro.dist.net.PartitionEndpoint` deduplicates, so redelivered
prepares and decides are exactly-once in effect.

Cross-partition transactions commit by **two-phase commit with presumed
abort** (see :mod:`repro.dist.coordinator`), and the fleet survives a
crashed partition (:meth:`~ShardedDatabase.recover_partition`), a lossy
network (the :class:`~repro.dist.detector.FailureDetector`) and a
crashed coordinator (:meth:`~ShardedDatabase.recover_coordinator`).
Every branch settles on one path: one send, one decision delivery, one
probe-then-decide helper (``docs/ARCHITECTURE.md`` §9).
"""

from repro.analysis.static import (
    StaticAnalyzer,
    check_copartition,
    trace_static_check,
)
from repro.common import (
    CatalogError,
    LogicalClock,
    PartitionUnavailableError,
    Row,
    SimulatedCrash,
    TransactionAborted,
    TransactionStateError,
)
from repro.catalog import TableSchema
from repro.core.config import EngineConfig
from repro.core.database import Database
from repro.dist.coordinator import TwoPhaseCoordinator
from repro.dist.detector import FailureDetector
from repro.dist.net import Network, PartitionEndpoint
from repro.dist.partitioner import RangePartitioner
from repro.faults import NULL_INJECTOR
from repro.obs import Tracer


class DistTransaction:
    """A global transaction: one gid, one lazy branch per partition.

    ``branches`` maps partition id → the branch transaction's id *on
    that partition*. The handles themselves live at the partition
    endpoints — the facade only ever talks to them over the network.
    """

    __slots__ = ("gid", "branches", "state")

    def __init__(self, gid):
        self.gid = gid
        self.branches = {}  # partition index -> branch txn_id
        self.state = "active"  # active | committed | aborted | in_doubt

    def __repr__(self):
        return (
            f"DistTransaction(gid={self.gid}, state={self.state}, "
            f"branches={sorted(self.branches)})"
        )

    def require_active(self):
        if self.state != "active":
            raise TransactionStateError(
                f"global transaction {self.gid} is {self.state}"
            )


class ShardedDatabase:
    """N independent engines behind one facade, glued by 2PC over a
    faultable transport."""

    def __init__(self, boundaries, config=None):
        self.partitioner = RangePartitioner(boundaries)
        base = config or EngineConfig()
        self.config = base
        self.clock = LogicalClock()
        self.tracer = Tracer(clock=self.clock)
        self.faults = NULL_INJECTOR
        self.coordinator = TwoPhaseCoordinator(tracer=self.tracer)
        #: the partition engines; direct access outside ``repro.dist`` is
        #: a lint violation (``dist-isolation``), and commit-path methods
        #: inside it must go through the transport instead
        #: (``transport-discipline``) — use the facade or
        #: :meth:`partition`.
        self._engines = [
            # Identical knobs, decorrelated retry jitter per partition.
            Database(base.clone(retry_seed=base.retry_seed + pid))
            for pid in range(self.partitioner.partitions)
        ]
        self.net = Network(
            clock=self.clock, tracer=self.tracer,
            seed=base.retry_seed + 509,
        )
        self._endpoints = []
        for pid, engine in enumerate(self._engines):
            endpoint = PartitionEndpoint(pid, engine)
            self._endpoints.append(endpoint)
            self.net.register(pid, endpoint)
        self.detector = FailureDetector(
            self.partitioner.partitions, self.net, tracer=self.tracer
        )
        self._schemas = {}  # table -> TableSchema (for routing)
        self._views = {}  # view name -> ViewDefinition (for folding)
        #: SA020 diagnostics accepted at DDL time: views that are legal
        #: but force scatter-gather reads (docs/ANALYSIS.md).
        self.copartition_warnings = []
        self.global_txns = 0
        self.single_partition_commits = 0
        self.two_phase_commits = 0
        self.presumed_aborts = 0
        self.coordinator_recoveries = 0
        self.in_doubt_resolved = {"commit": 0, "abort": 0}

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------

    @property
    def partitions(self):
        return len(self._engines)

    def partition(self, pid):
        """Operator access to one partition engine (tests, chaos
        harnesses). Engine-level code must not reach across partitions —
        that is the facade's job."""
        return self._engines[pid]

    def down_partitions(self):
        return self.detector.down_partitions()

    def install_fault_injector(self, injector):
        """Thread one injector through the facade, the transport, every
        partition endpoint, the coordinator, and every partition engine —
        a single seeded stream drives the whole fleet's chaos schedule."""
        self.faults = injector if injector is not None else NULL_INJECTOR
        self.coordinator.faults = self.faults
        self.net.faults = self.faults
        for endpoint in self._endpoints:
            endpoint.faults = self.faults
        for engine in self._engines:
            engine.install_fault_injector(injector)
        if injector is not None:
            # Engines rebind the injector's tracer as they install; the
            # dist facade owns the fleet-level trace, so rebind last.
            injector.tracer = self.tracer
        return self.faults

    # ------------------------------------------------------------------
    # schema (forwarded to every partition)
    # ------------------------------------------------------------------

    def create_table(self, name, columns, primary_key):
        schema = TableSchema(name, columns, primary_key)
        for engine in self._engines:
            engine.create_table(name, columns, primary_key)
        self._schemas[name] = schema
        return schema

    def create_view(self, view, *, unique=True, deferred=False):
        """Fan a view out to every partition. ``view`` is a
        ``ViewDefinition`` or ``CREATE INDEXED VIEW ...`` SQL (each
        partition compiles the statement against its own catalog). Join
        views are refused — the join sides cannot be co-partitioned in
        general — and online builds are not supported in dist mode."""
        probe = view
        if not hasattr(probe, "kind"):
            from repro.sql import compile_view

            probe = compile_view(view, self._engines[0].catalog)
        probe.bind_keys(self._engines[0].catalog)
        self._shard_check(probe)
        result = None
        for engine in self._engines:
            result = engine.create_view(
                view, unique=unique, deferred=deferred
            )
        self._views[result.name] = result
        return result

    # ------------------------------------------------------------------
    # static analysis (docs/ANALYSIS.md)
    # ------------------------------------------------------------------

    def _analyzer(self):
        """Every partition runs the same schema, so partition 0's
        catalog stands in for the fleet; the partitioner switches on
        the co-partitioning checks."""
        return StaticAnalyzer.configured(
            self._engines[0].catalog, self.config, self.partitioner
        )

    def _shard_check(self, probe):
        """DDL-time shard safety. An SA021 (cross-partition join)
        refuses the view outright; SA020 (legal but scatter-gather) is
        recorded on :attr:`copartition_warnings`, traced, and lets the
        DDL proceed."""
        diagnostics = check_copartition(
            self._engines[0].catalog, probe, self.partitioner
        )
        trace_static_check(self.tracer, probe.name, "check_view", diagnostics)
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:
            raise CatalogError(
                "join views are not supported in dist mode: the join "
                "sides cannot be co-partitioned in general (documented "
                f"limitation) — [{errors[0].code}] {errors[0].message}"
            )
        self.copartition_warnings.extend(diagnostics)
        return diagnostics

    def check_view(self, name):
        """``CHECK VIEW`` against the fleet: the single-engine report
        plus the co-partitioning verdict (SA020/SA021)."""
        report = self._analyzer().check_view(name)
        trace_static_check(
            self.tracer, name, "check_view", report.diagnostics
        )
        return report

    def check_all(self):
        """Whole-catalog static analysis with the fleet's partitioner
        wired in; returns a ``StaticReport``."""
        report = self._analyzer().check_all()
        trace_static_check(
            self.tracer, "catalog", "check_all", report.diagnostics
        )
        return report

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _key_of(self, table, values):
        row = values if isinstance(values, Row) else Row(values)
        return self._schemas[table].key_of(row)

    def _require_up(self, pid, gid=None):
        if self.detector.is_down(pid):
            raise PartitionUnavailableError(gid, partition=pid)

    def _send(self, pid, kind, payload, gid=None, txn_id=None):
        """The one way the facade reaches a partition: a request over the
        transport. A ``SimulatedCrash`` escaping the partition's handler
        is synchronous evidence that it died — it is marked down (no
        heartbeat suspicion needed) and the crash propagates."""
        try:
            return self.net.request(
                pid, kind, payload, gid=gid, txn_id=txn_id
            )
        except SimulatedCrash:
            self.detector.confirm_down(pid)
            raise

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self):
        self._ensure_coordinator()
        self.global_txns += 1
        self.clock.tick()
        return DistTransaction(self.coordinator.new_gid())

    def _op(self, dtxn, key, op, *args):
        """Route one statement — ``engine.<op>(txn, *args)`` — to the
        partition owning ``key`` over the transport.

        Every op — not just the one that opens the branch — checks the
        failure detector first: an already-open branch on a partition
        that has since gone down must fail fast with
        :class:`PartitionUnavailableError`, never proceed against a dead
        engine.
        """
        dtxn.require_active()
        pid = self.partitioner.partition_of(key)
        self._require_up(pid, dtxn.gid)
        reply = self._send(
            pid, "op", (op, args), gid=dtxn.gid,
            txn_id=dtxn.branches.get(pid),
        )
        dtxn.branches[pid] = reply["txn_id"]
        return reply["result"]

    def insert(self, dtxn, table, values):
        key = self._key_of(table, values)
        return self._op(dtxn, key, "insert", table, values)

    def update(self, dtxn, table, key, changes):
        key = tuple(key)
        return self._op(dtxn, key, "update", table, key, changes)

    def delete(self, dtxn, table, key):
        key = tuple(key)
        return self._op(dtxn, key, "delete", table, key)

    def read(self, dtxn, table, key, for_update=False):
        """Transactional point read of a *base table* row (routed by
        key). View reads fold across partitions — use
        :meth:`read_folded`."""
        key = tuple(key)
        return self._op(dtxn, key, "read", table, key, for_update)

    def commit(self, dtxn):
        """Commit the global transaction.

        Zero branches commit trivially and one branch commits locally
        (the single-partition fast path — no coordinator involvement,
        just the partition's own WAL rule). Two or more branches run the
        full protocol: phase 1 asks every branch to
        :meth:`~repro.core.participant.Participant.prepare` (an exception, a
        transport give-up, or an armed loss site is a no vote); the
        decision is commit iff every vote arrived yes, logged durably at
        the coordinator; phase 2 applies it branch-by-branch. A branch
        whose partition dies between prepare and decision stays
        **in-doubt** there — the surviving branches still apply the
        decision, and the dead partition resolves on
        :meth:`recover_partition`.

        Returns the decision (``"commit"`` / ``"abort"``); a lost
        decision or a coordinator crash mid-protocol returns
        ``"in_doubt"`` (resolve via :meth:`resolve`). Raises
        :class:`~repro.common.TransactionAborted` when the global
        transaction aborted.
        """
        dtxn.require_active()
        branches = dtxn.branches
        if not branches:
            dtxn.state = "committed"
            return "commit"
        if len(branches) == 1:
            ((pid, txn_id),) = branches.items()
            try:
                self._require_up(pid, dtxn.gid)
                self._send(pid, "commit", {}, gid=dtxn.gid, txn_id=txn_id)
            except TransactionAborted:
                # The branch died with its partition, or the commit was
                # refused engine-side: the single branch is the whole
                # outcome, so the global transaction aborted.
                dtxn.state = "aborted"
                raise
            dtxn.state = "committed"
            self.single_partition_commits += 1
            return "commit"
        return self._two_phase_commit(dtxn)

    def _coordinator_step(self, detail):
        """One coordinator protocol step: ``True`` when the coordinator
        is (or just became) dead and the protocol cannot continue.

        ``dist.coordinator_crash`` is evaluated here with the step name
        as detail (``prepare_send:<pid>``, ``decide_send:<pid>``), so
        chaos can kill the coordinator at any hop — the decision point
        itself is evaluated inside
        :meth:`~repro.dist.coordinator.TwoPhaseCoordinator.decide` with
        the gid as detail.
        """
        if self.coordinator.crashed:
            return True
        if self.faults.active and self.faults.fires(
            "dist.coordinator_crash", detail=detail
        ) is not None:
            self.coordinator.crash()
            return True
        return False

    def _two_phase_commit(self, dtxn):
        gid = dtxn.gid
        branches = dtxn.branches
        self.two_phase_commits += 1
        # ---- phase 1: collect votes --------------------------------
        votes = {}
        for pid in sorted(branches):
            txn_id = branches[pid]
            if self._coordinator_step(f"prepare_send:{pid}"):
                dtxn.state = "in_doubt"
                return "in_doubt"
            vote = False
            if self.detector.is_down(pid):
                pass  # a dead partition cannot vote yes
            else:
                try:
                    vote = self._send(
                        pid, "prepare", {}, gid=gid, txn_id=txn_id
                    )["vote"]
                except SimulatedCrash:
                    pass  # crash at / before the vote: nothing arrived
                except TransactionAborted:
                    vote = False  # transport gave up, or the flush
                    # fault engine-side: the promise never held
                if vote and self.faults.active and self.faults.fires(
                    "dist.prepare_lost", txn_id=txn_id, detail=str(pid)
                ) is not None:
                    # Durably prepared, but the coordinator never hears
                    # it: counts as no, and presumed abort squares the
                    # prepared branch with the abort decision later.
                    vote = False
            votes[pid] = vote
            if self.tracer.enabled:
                self.tracer.emit(
                    "2pc_prepare", gid=gid, partition=pid,
                    vote="yes" if vote else "no",
                )
        # ---- decision ----------------------------------------------
        decision = "commit" if all(votes.values()) else "abort"
        durable = self.coordinator.decide(gid, decision, sorted(branches))
        if not durable:
            # Nobody may act on a non-durable decision (a participant
            # could later presume abort while another applied commit).
            # Every prepared branch stays pending until resolve().
            dtxn.state = "in_doubt"
            return "in_doubt"
        # ---- phase 2: apply ----------------------------------------
        self._settle_branches(dtxn, decision, phase2=True)
        dtxn.state = decision
        if decision == "abort":
            raise TransactionAborted(gid, reason="2pc abort")
        return decision

    def _deliver(self, pid, gid, txn_id, decision):
        """The one decision delivery: send ``decision`` to one branch.
        A recovered in-doubt branch it settles is counted."""
        reply = self._send(
            pid, "decide", {"decision": decision}, gid=gid, txn_id=txn_id
        )
        if reply.get("via") == "in_doubt":
            self.in_doubt_resolved[decision] += 1

    def _settle_branches(self, dtxn, decision, phase2=False):
        """Deliver ``decision`` to every branch of ``dtxn`` — phase 2,
        :meth:`abort` and :meth:`resolve`. A branch on a down partition
        is skipped, and one whose partition crashes or whose transport
        gives up stays prepared: both settle from the decision log on
        :meth:`recover_partition` or the next coordinator hand-off."""
        for pid, txn_id in sorted(dtxn.branches.items()):
            if phase2 and self._coordinator_step(f"decide_send:{pid}"):
                # The coordinator died mid-phase-2. The decision is
                # already durable — the client outcome stands — but the
                # remaining branches learn it only from the decision log
                # once recover_coordinator() probes them.
                return
            if self.detector.is_down(pid):
                continue
            try:
                self._deliver(pid, dtxn.gid, txn_id, decision)
            except (SimulatedCrash, TransactionAborted):
                pass

    def abort(self, dtxn, reason="user"):
        """Abort the global transaction (phase 1 never ran)."""
        if dtxn.state == "aborted":
            return
        dtxn.require_active()
        self._settle_branches(dtxn, "abort")
        dtxn.state = "aborted"

    def resolve(self, dtxn):
        """Resolve a global transaction stuck in doubt (lost decision or
        crashed coordinator): consult the durable decision log; an
        undecided gid is presumed aborted. Live prepared branches finish
        through their endpoint handles, recovered ones through the
        engine's in-doubt registry — both over the transport."""
        if dtxn.state != "in_doubt":
            raise TransactionStateError(
                f"global transaction {dtxn.gid} is {dtxn.state}, not in doubt"
            )
        self._ensure_coordinator()
        decision = self._decision(dtxn.gid)
        self._settle_branches(dtxn, decision)
        dtxn.state = decision
        return decision

    # ------------------------------------------------------------------
    # partial failure
    # ------------------------------------------------------------------

    def crash_partition(self, pid):
        """Operator/chaos entry point for killing a partition outright:
        its volatile state (locks, buffer pool, open transactions,
        unflushed log suffix, endpoint dedup tables) is gone; the durable
        WAL and page store survive for :meth:`recover_partition`."""
        self._endpoints[pid].crash()
        self.detector.confirm_down(pid)

    def heartbeat_round(self):
        """One failure-detector sweep over the fleet (see
        :class:`~repro.dist.detector.FailureDetector`). Heartbeats ride
        the same faultable transport as 2PC traffic, so a lossy network
        produces suspicion and a healed one produces re-admission.
        Returns the post-round down list."""
        return self.detector.heartbeat_round()

    def recover_partition(self, pid):
        """Run ARIES recovery on a down partition, resolve every in-doubt
        branch from the coordinator's durable decision log (undecided =
        presumed abort), and only then rejoin it: a transport give-up on
        the way leaves the partition down, and calling this again
        settles it. Returns the
        :class:`~repro.wal.recovery.RecoveryReport`."""
        self._ensure_coordinator()
        report = self._endpoints[pid].recover()
        resolved = self._settle_in_doubt(pid)
        self.detector.readmit(pid)
        if self.tracer.enabled:
            self.tracer.emit(
                "partition_recovered", partition=pid,
                in_doubt=len(report.in_doubt),
                resolved_commit=resolved["commit"],
                resolved_abort=resolved["abort"],
            )
        return report

    def _ensure_coordinator(self):
        if self.coordinator.crashed:
            self.recover_coordinator()

    def _settle_in_doubt(self, pid):
        """Probe ``pid`` for the branches awaiting a decision and deliver
        each its durable one (undecided = presumed abort). A crash or a
        transport give-up propagates to the caller. Returns the
        deliveries by outcome."""
        resolved = {"commit": 0, "abort": 0}
        for txn_id, gid in sorted(self._send(pid, "probe", {}).items()):
            decision = self._decision(gid)
            self._deliver(pid, gid, txn_id, decision)
            resolved[decision] += 1
        return resolved

    def _decision(self, gid):
        """The durable decision on ``gid``; an undecided gid is presumed
        aborted, and counted."""
        decision = self.coordinator.durable_decision(gid)
        if decision is None:
            decision = "abort"
            self.presumed_aborts += 1
        return decision

    def recover_coordinator(self):
        """Stand up a fresh coordinator after a crash.

        The new instance rebuilds its state from exactly two sources —
        the *durable prefix* of the decision log and the partitions'
        in-doubt reports gathered over the transport. Every reported gid
        with a durable decision is finished accordingly; a gid with no
        durable decision is presumed aborted. New gids carry a bumped
        epoch so they can never collide with pre-crash in-flight ones.
        """
        self.coordinator = TwoPhaseCoordinator.recover(
            self.coordinator, tracer=self.tracer, faults=self.faults
        )
        self.coordinator_recoveries += 1
        for pid in range(self.partitions):
            if self.detector.is_down(pid):
                continue  # its branches resolve on recover_partition
            try:
                self._settle_in_doubt(pid)
            except (SimulatedCrash, TransactionAborted):
                pass  # down now, or unreachable: settles on rejoin or
                # at the next hand-off
        return self.coordinator

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_committed(self, table, key):
        """Latest committed base-table row, routed by key."""
        key = tuple(key)
        pid = self.partitioner.partition_of(key)
        self._require_up(pid)
        return self._engines[pid].read_committed(table, key)

    def read_folded(self, view_name, key):
        """Latest committed row of an aggregate view group, folded across
        every *up* partition's sub-counter row: COUNT/SUM add, MIN/MAX
        fold, a folded count of zero reads as absent. Down partitions are
        skipped — the quarantine-style degraded read: the answer covers
        the surviving partitions and the caller knows the fleet is
        degraded via :meth:`down_partitions`."""
        view = self._views[view_name]
        key = tuple(key)
        sub_rows = []
        for pid, engine in enumerate(self._engines):
            if self.detector.is_down(pid):
                continue
            row = engine.read_committed(view_name, key)
            if row is not None:
                sub_rows.append(row)
        return self._fold(view, key, sub_rows)

    def scan_folded(self, view_name):
        """Every committed group of an aggregate view, folded across up
        partitions; returns ``{group_key: Row}``. Each partition answers
        through its committed read path, as :meth:`read_folded` does: a
        quarantined partition from its recomputation."""
        view = self._views[view_name]
        by_key = {}
        for pid, engine in enumerate(self._engines):
            if self.detector.is_down(pid):
                continue
            for key, row in engine.scan_committed(view_name):
                by_key.setdefault(key, []).append(row)
        return {
            key: self._fold(view, key, by_key[key])
            for key in sorted(by_key, key=repr)
        }

    def _fold(self, view, key, sub_rows):
        """One group's sub-counter rows folded; ``None`` without any (a
        partition's read path already hides a zero-count row)."""
        if not sub_rows:
            return None
        values = dict(zip(view.group_by, key))
        for spec in view.aggregates:
            if spec.is_extreme():
                folded = None
                for row in sub_rows:
                    if row[spec.out] is not None:
                        folded = spec.fold_extreme(folded, row[spec.out])
                values[spec.out] = folded
            else:
                values[spec.out] = sum(row[spec.out] for row in sub_rows)
        return Row(values)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def in_doubt_total(self):
        return sum(
            len(engine.participant.in_doubt_transactions())
            for engine in self._engines
        )

    def stats(self):
        """The fleet-level ``dist`` and ``net`` blocks
        (docs/OBSERVABILITY.md)."""
        net = self.net.stats()
        net.update(self.detector.stats())
        return {
            "dist": {
                "partitions": self.partitions,
                "down": self.down_partitions(),
                "global_txns": self.global_txns,
                "single_partition_commits": self.single_partition_commits,
                "two_phase_commits": self.two_phase_commits,
                "decisions": dict(self.coordinator.decided),
                "lost_decisions": self.coordinator.lost_decisions,
                "presumed_aborts": self.presumed_aborts,
                "in_doubt": self.in_doubt_total(),
                "in_doubt_resolved": dict(self.in_doubt_resolved),
                "coordinator_recoveries": self.coordinator_recoveries,
            },
            "net": net,
        }
