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

The coordinator never mutates engine state itself: on a flush fault it
hands the non-durable tickets to ``failure_handler`` (installed by
:class:`~repro.core.database.Database`), which either retracts the group
(when provably sound) or escalates to :class:`~repro.common.SimulatedCrash`
— the dependent-reader abort story the early-lock-release rule requires.
"""

from repro.common import FaultInjected, SimulatedCrash
from repro.faults import NULL_INJECTOR
from repro.obs.metrics import Histogram
from repro.obs.tracer import NULL_TRACER


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

    def __init__(self, log, clock, policy=None, size=8, latency=16,
                 tracer=NULL_TRACER, faults=None):
        self.log = log  # reattached by Database after a WAL restore
        self._clock = clock
        self.policy = policy  # None | "size" | "latency"
        self.size = size
        self.latency = latency
        self.tracer = tracer
        self.faults = faults if faults is not None else NULL_INJECTOR
        #: ``failure_handler(nondurable_tickets, member_ids, fault)`` —
        #: installed by the Database; retracts or escalates to a crash.
        self.failure_handler = None
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
        as winners and only the rest reach the failure handler, so a
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
            if self.failure_handler is None:
                raise SimulatedCrash(fault.site, committed=False) from fault
            self.failure_handler(nondurable, member_ids, fault)
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
        now = self._clock.now()
        for ticket in durable:
            ticket.state = CommitTicket.DURABLE
            ticket.resolved_at = now
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

    def abandon_pending(self, reason="crash"):
        """A crash destroyed the open group: its members' COMMIT records
        were in the lost suffix, so recovery rolls them back as losers."""
        if not self._pending:
            return 0
        now = self._clock.now()
        for ticket in self._pending:
            ticket.state = CommitTicket.LOST
            ticket.reason = reason
            ticket.resolved_at = now
        lost = len(self._pending)
        self.lost_txns += lost
        self._pending = []
        self._opened_at = None
        return lost

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
