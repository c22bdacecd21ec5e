"""Group commit: one batched WAL flush covers many committing transactions.

Without grouping the engine forces a flush inside every commit, so commit
throughput is bounded by one flush per transaction. With grouping, a
committing transaction appends its COMMIT record, becomes
*commit-visible* at once (escrow folds applied, locks released — the
early-lock-release rule: the commit point is the commit-record append,
not the flush), and enrolls a :class:`CommitTicket` on the open
:class:`CommitGroup`. A single ``flush()`` later covers the whole group:

* **size policy** — the transaction that fills the group to
  ``group_commit_size`` members becomes the flush *leader* and flushes
  inline;
* **latency policy** — the group carries a deadline
  (``opened_at + group_commit_latency``); the simulator's scheduler
  fires it via :meth:`GroupCommitCoordinator.poll` and the last enrolled
  member is elected leader.

Durability progress is observed through :attr:`LogManager.flush_listener`
rather than inside :meth:`flush` itself, so a flush triggered elsewhere
(a checkpoint, ``ensure_durable``) settles pending tickets too. A ticket
settles as:

* ``durable`` — its COMMIT record is inside the flushed prefix;
* ``retracted`` — the group flush failed *before* the COMMIT became
  durable and the database rolled the member back (a retryable outcome:
  callers see :class:`~repro.common.FaultInjected`);
* ``lost`` — a crash destroyed the pending group; recovery rolls the
  member back as a loser.

What a failed group flush does is decided here too: retract the group
through the one ``restart`` callable the engine hands in, or escalate to
:class:`~repro.common.SimulatedCrash`.
"""

from repro.common import FaultInjected, SimulatedCrash
from repro.faults import NULL_INJECTOR
from repro.obs.metrics import Histogram
from repro.obs.tracer import NULL_TRACER
from repro.txn.transaction import TxnState


class CommitTicket:
    """One transaction's stake in a commit group.

    ``commit_lsn`` decides durability: the COMMIT record — the
    transaction's last — must be inside the flushed prefix. A silent
    transaction (no record of its own) carries the LSN of the newest
    COMMIT that was pending when it ended: what it may have read.
    """

    PENDING = "pending"
    DURABLE = "durable"
    RETRACTED = "retracted"
    LOST = "lost"

    __slots__ = ("txn", "commit_lsn", "state", "reason", "resolved_at",
                 "leader")

    def __init__(self, txn, commit_lsn):
        self.txn = txn
        self.commit_lsn = commit_lsn
        self.state = CommitTicket.PENDING
        self.reason = None
        self.resolved_at = None
        self.leader = False

    @property
    def txn_id(self):
        return self.txn.txn_id

    def __repr__(self):
        return (f"CommitTicket(txn={self.txn_id}, commit_lsn="
                f"{self.commit_lsn}, state={self.state})")


class GroupCommitCoordinator:
    """Owns the open commit group and the batched-flush protocol."""

    def __init__(self, log, clock, counters, restart, policy=None, size=8,
                 latency=16, tracer=NULL_TRACER, faults=None):
        self.log = log  # rewired by attach() after a crash or a restore
        self.txns = None  # the TransactionManager, wired by attach()
        self._clock = clock
        self.counters = counters
        #: ``restart(member_ids)`` recovers from the durable log prefix,
        #: rolling the members back
        self.restart = restart
        self.policy = policy  # None | "size" | "latency"
        self.size = size
        self.latency = latency
        self.tracer = tracer
        self.faults = faults if faults is not None else NULL_INJECTOR
        self._pending = []  # tickets of the single open group, enroll order
        self._opened_at = None
        self._current_leader = None
        self.flushes = 0  # settle events with >= 1 member
        self.durable_txns = 0
        self.retracted_txns = 0
        self.lost_txns = 0
        self.crash_escalations = 0
        self.group_sizes = Histogram()

    @property
    def enabled(self):
        return self.policy is not None

    def pending_count(self):
        return len(self._pending)

    def pending_lsn(self):
        """The newest COMMIT still waiting for its flush, or ``None``."""
        return self._pending[-1].commit_lsn if self._pending else None

    # ------------------------------------------------------------------
    # enrolment and deadlines
    # ------------------------------------------------------------------

    def enroll(self, txn, commit_lsn):
        """Add a commit-visible transaction to the open group. Under the
        size policy the member that fills the group leads the flush
        inline; otherwise the ticket stays pending until a deadline,
        ``ensure_durable``, or an external flush settles it."""
        ticket = CommitTicket(txn, commit_lsn)
        txn.commit_ticket = ticket
        if not self._pending:
            self._opened_at = self._clock.now()
        self._pending.append(ticket)
        if self.policy == "size" and len(self._pending) >= self.size:
            self.flush(leader=txn.txn_id)
        return ticket

    def next_deadline(self):
        """The logical tick at which the open group must flush, or
        ``None`` (size policy groups have no deadline)."""
        if self.policy == "latency" and self._pending:
            return self._opened_at + self.latency
        return None

    def poll(self, now=None):
        """Fire the group deadline if it has passed. Returns True when a
        flush was performed."""
        deadline = self.next_deadline()
        if deadline is None:
            return False
        if now is None:
            now = self._clock.now()
        if now < deadline:
            return False
        self.flush()
        return True

    def flush_pending(self):
        """Force the open group out (quiescence, shutdown, explicit
        durability). Returns the number of members flushed."""
        n = len(self._pending)
        if n:
            self.flush()
        return n

    # ------------------------------------------------------------------
    # the batched flush
    # ------------------------------------------------------------------

    def flush(self, leader=None):
        """One physical flush for the whole open group.

        The ``wal.group_flush`` fault site fires before the device is
        touched; ``wal.flush``/``wal.torn_tail`` can fire inside
        :meth:`LogManager.flush` as usual. A torn tail may leave a prefix
        of the group durable — the flush listener settles those members
        as winners and only the rest are retracted (or escalate), so a
        retry re-runs exactly the non-durable members.
        """
        if not self._pending:
            return
        leader_id = leader if leader is not None else self._pending[-1].txn_id
        for ticket in self._pending:
            if ticket.txn_id == leader_id:
                ticket.leader = True
        target = self._pending[-1].commit_lsn  # enrolled in LSN order
        member_ids = {t.txn_id for t in self._pending}
        self._current_leader = leader_id
        try:
            if self.faults.active:
                self.faults.maybe_raise("wal.group_flush", txn_id=leader_id)
            self.log.flush(target)
        except FaultInjected as fault:
            # on_flushed already settled any torn-tail winners; whatever
            # is still pending did not reach durability.
            nondurable = list(self._pending)
            self._pending = []
            self._opened_at = None
            self._current_leader = None
            self._retract_or_escalate(nondurable, member_ids, fault)
            return
        finally:
            self._current_leader = None
        if self.faults.active:
            self.faults.maybe_crash(
                "txn.commit.after", txn_id=leader_id, committed=True
            )

    def on_flushed(self, flushed_lsn):
        """``LogManager.flush_listener``: settle every pending ticket
        whose COMMIT record the durable prefix now covers."""
        if not self._pending:
            return
        durable = [t for t in self._pending if t.commit_lsn <= flushed_lsn]
        if not durable:
            return
        self._settle(durable, CommitTicket.DURABLE)
        self._pending = [
            t for t in self._pending if t.state == CommitTicket.PENDING
        ]
        if not self._pending:
            self._opened_at = None
        self.flushes += 1
        self.durable_txns += len(durable)
        self.group_sizes.observe(len(durable))
        if self.tracer.enabled:
            self.tracer.emit(
                "group_commit", members=len(durable),
                flushed_lsn=flushed_lsn, leader=self._current_leader,
            )

    def attach(self, log, txns):
        """Wire to the engine's (new) log and transaction manager, at
        start and after a crash — which destroyed the open group: its
        members' COMMIT records were lost, recovery rolls them back, and
        their tickets are lost. (A retraction leaves nothing pending.)"""
        self.lost_txns += len(self._pending)
        self._settle(self._pending, CommitTicket.LOST, "crash")
        self._pending = []
        self._opened_at = None
        self.log = log
        self.txns = txns
        log.flush_listener = self.on_flushed

    def _retract_or_escalate(self, tickets, member_ids, fault):
        """The group flush failed before ``tickets`` became durable.
        *Retract* the group — ``restart`` recovers from the durable
        prefix, the members abort retryably — when that provably undoes
        only the group (:meth:`_retractable`). Otherwise a reader may have
        consumed a member's writes under early lock release, so escalate
        to :class:`~repro.common.SimulatedCrash`: recovery aborts the
        dependents too (see the commit-flush comment in
        ``txn/manager.py``)."""
        if not self._retractable(tickets, member_ids):
            # The members' COMMIT records die with the volatile log; mark
            # their tickets lost now so nothing waits on them forever.
            self._settle(tickets, CommitTicket.LOST, fault.site)
            self.lost_txns += len(tickets)
            self.crash_escalations += 1
            self.counters.incr("group_commit.crash_escalations")
            raise SimulatedCrash(fault.site, committed=False) from fault
        self.restart(member_ids)
        self._settle(tickets, CommitTicket.RETRACTED, fault.site)
        self.retracted_txns += len(tickets)
        self.counters.incr("group_commit.retractions", len(tickets))

    def _retractable(self, tickets, member_ids):
        """True when discarding the unflushed suffix undoes *only* the
        failed group, and undoes it: no active transactions, every
        unflushed record belongs to a group member, and no member of
        ``tickets`` is a prepared 2PC branch (its durable PREPARE makes
        recovery keep it in doubt, not roll it back)."""
        if self.txns.active_transactions():
            return False
        if any("2pc_gid" in ticket.txn.scratch for ticket in tickets):
            return False
        return all(
            txn_id in member_ids
            for _, _, txn_id, _ in self.log.headers(self.log.flushed_lsn + 1)
        )

    def _settle(self, tickets, state, reason=None):
        """Resolve ``tickets`` as ``state``; a retracted member reads as
        rolled back (recovery just did that), so abort paths skip it."""
        now = self._clock.now()
        for ticket in tickets:
            ticket.state = state
            ticket.reason = reason
            ticket.resolved_at = now
            if state == CommitTicket.RETRACTED:
                ticket.txn.state = TxnState.ABORTED

    def stats(self):
        """The ``db.stats()["group_commit"]`` payload (shape pinned by
        ``docs/OBSERVABILITY.md`` and ``tests/test_group_commit.py``)."""
        return {
            "enabled": self.enabled,
            "policy": self.policy or "off",
            "size_bound": self.size,
            "latency_bound": self.latency,
            "groups_flushed": self.flushes,
            "durable_txns": self.durable_txns,
            "retracted_txns": self.retracted_txns,
            "lost_txns": self.lost_txns,
            "crash_escalations": self.crash_escalations,
            "pending": self.pending_count(),
            "group_size": self.group_sizes.as_dict(),
        }
