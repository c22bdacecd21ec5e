"""Deterministic fault injection: named sites, seeded schedules.

The engine's hot paths are threaded with *fault sites* — named points
where an injected failure is meaningful and, crucially, where failing is
**sound**: every site was placed so that the engine's normal abort /
recovery machinery fully cleans up after the fault (see
``docs/ROBUSTNESS.md`` for the catalogue and the soundness argument per
site).

With no injector installed every site costs one attribute read and a
branch (``if faults.active:``), mirroring the tracer's NULL-object
pattern. Installing a :class:`FaultInjector` (``db.install_fault_injector``)
and arming sites turns failures on:

    injector = FaultInjector(seed=42)
    db.install_fault_injector(injector)
    injector.arm("wal.flush", probability=0.05)        # seeded coin flip
    injector.arm("txn.commit.after", after=3, times=1)  # 4th commit crashes

Determinism: the injector draws from its own ``random.Random(seed)``
stream, one draw per probabilistic evaluation, so identical workloads
with identical seeds fire identical faults — a failing chaos seed can be
replayed exactly.

Two failure shapes exist, matching two error types:

* **recoverable faults** (:class:`~repro.common.errors.FaultInjected`,
  a ``TransactionAborted``): the transaction aborts and may be retried;
* **crashes** (:class:`~repro.common.errors.SimulatedCrash`): the
  process is gone — the harness must call
  ``db.simulate_crash_and_recover()`` before touching the database again.
"""

import random

from repro.common import FaultInjected, ReproError, SimulatedCrash
from repro.obs.tracer import NULL_TRACER

#: site name -> {"action": how the site fails, "description": where it sits}
FAULT_SITES = {
    "wal.append": {
        "action": "raise",
        "description": "log append of an undoable record fails *after* the "
        "record is in the append stream (device error on the ack); the "
        "transaction aborts and rolls back through the record",
    },
    "wal.append.lost": {
        "action": "lost",
        "description": "log append silently drops the record (unsound by "
        "design: exists to prove the chaos oracle detects corruption)",
    },
    "wal.flush": {
        "action": "raise",
        "description": "log flush fails before advancing the durable "
        "boundary; at the commit point this escalates to a crash",
    },
    "wal.torn_tail": {
        "action": "torn",
        "description": "log flush makes all but the final record durable, "
        "then fails — a torn write at the tail",
    },
    "wal.group_flush": {
        "action": "raise",
        "description": "the batched group-commit flush fails before any "
        "member's COMMIT record reaches the device; when retraction is "
        "sound the whole group rolls back and members see a retryable "
        "FaultInjected, otherwise the failure escalates to a crash",
    },
    "lock.delay": {
        "action": "delay",
        "description": "an immediately-grantable lock request is forced to "
        "wait a few ticks (granted by LockManager.poll)",
    },
    "lock.deny": {
        "action": "deny",
        "description": "a lock request is spuriously denied, aborting the "
        "requesting transaction (retryable)",
    },
    "txn.commit.before": {
        "action": "crash",
        "description": "crash before the COMMIT record is appended — the "
        "transaction must be a loser after recovery",
    },
    "txn.commit.after": {
        "action": "crash",
        "description": "crash after the COMMIT record is flushed but before "
        "the caller hears back — the transaction must be a winner after "
        "recovery",
    },
    "view.midapply": {
        "action": "crash",
        "description": "crash between the actions of one statement, after "
        "the base-table mutation but mid view maintenance",
    },
    "view.online_build": {
        "action": "crash",
        "description": "crash during a view build over existing rows, "
        "online or not, evaluated at each phase (detail 'snapshot:<n>' "
        "per row filled, 'flip' before the build commit, 'post_commit' "
        "after the build commit is durable) — "
        "recovery must either complete the build (durable commit) or "
        "make the half-built view vanish without a trace",
    },
    "cleanup.interrupt": {
        "action": "raise",
        "description": "the ghost cleaner's system transaction is aborted "
        "mid-candidate; the candidate must be requeued, user data untouched",
    },
    "wal.corrupt": {
        "action": "corrupt",
        "description": "a record's payload is flipped in the durable stream "
        "just after its checksum stamp — a bit flip on the device; the "
        "salvage scan must truncate at it and report what was lost",
    },
    "recovery.analysis": {
        "action": "crash",
        "description": "crash during the recovery analysis pass, evaluated "
        "once per scanned record — recovery itself dies and must be "
        "re-entered from the top",
    },
    "recovery.redo": {
        "action": "crash",
        "description": "crash during the redo pass, evaluated before each "
        "data record is replayed — a half-repeated history that the next "
        "recovery attempt must complete",
    },
    "recovery.undo": {
        "action": "crash",
        "description": "crash during the undo pass, evaluated before each "
        "loser record is examined — durable CLRs make the next attempt "
        "skip already-compensated work instead of undoing twice",
    },
    "page.torn_write": {
        "action": "torn",
        "description": "a buffer-pool write-back corrupts the page image "
        "in flight (power loss mid-sector); the page CRC trips at the "
        "next read and recovery falls back to full-log replay instead "
        "of trusting the store",
    },
    "wal.segment_lost": {
        "action": "lost",
        "description": "one whole WAL segment file vanishes during "
        "dump_wal_segments, evaluated once per segment — the LSN gap "
        "makes load_segments drop everything past it and the salvage "
        "report counts the loss",
    },
    "dist.partition_crash": {
        "action": "crash",
        "description": "one partition engine crashes mid-2PC, evaluated "
        "per branch at two points (detail 'prepare:<pid>' before the "
        "branch votes, 'decide:<pid>' after a durable prepare) — the "
        "partition goes down holding its in-doubt branch while the "
        "surviving partitions keep serving; recovery plus the "
        "coordinator's decision log resolve the branch on rejoin",
    },
    "dist.prepare_lost": {
        "action": "lost",
        "description": "a branch prepares durably but its vote is lost "
        "on the way back to the coordinator — the coordinator counts it "
        "as a no vote and decides abort; the prepared branch is later "
        "resolved to abort (presumed abort keeps both sides consistent)",
    },
    "dist.decision_lost": {
        "action": "lost",
        "description": "the coordinator's decision is lost before it "
        "reaches the decision log and no participant is notified — no "
        "later flush can make it binding; every prepared branch stays "
        "in-doubt until resolution, which finds no durable decision and "
        "presumes abort",
    },
    "dist.coordinator_crash": {
        "action": "crash",
        "description": "the coordinator process dies mid-protocol, "
        "evaluated at every step (detail 'prepare_send:<pid>' before a "
        "prepare goes out, the gid at the decision point, "
        "'decide_send:<pid>' before a phase-2 delivery) — the decision "
        "log loses its unflushed suffix and the instance refuses further "
        "decisions; recover_coordinator() rebuilds a fresh one from the "
        "durable decision log plus partition in-doubt reports, presuming "
        "abort for undecided gids",
    },
    "net.request_lost": {
        "action": "lost",
        "description": "a coordinator-to-partition message (detail "
        "'<kind>:<pid>') is dropped before delivery — the sender times "
        "out, backs off, and retransmits with the same msg_id; "
        "exhausting the retry budget surfaces net_gave_up and a "
        "retryable PartitionUnavailableError",
    },
    "net.reply_lost": {
        "action": "lost",
        "description": "the request is delivered and its effects stand, "
        "but the reply never reaches the sender — the retransmission is "
        "absorbed by the endpoint's dedup tables (cached reply, binding "
        "vote, applied decision), keeping effects exactly-once",
    },
    "net.duplicate": {
        "action": "duplicate",
        "description": "a delivered message is delivered a second time — "
        "the endpoint's per-msg_id reply cache and per-gid vote/decision "
        "tables must make the duplicate a no-op",
    },
    "net.reorder": {
        "action": "reorder",
        "description": "a message is parked and overtaken, delivered "
        "late after the next successful delivery on its channel — the "
        "sender sees a timeout and retransmits; the stale delivery must "
        "be idempotent",
    },
    "net.delay": {
        "action": "delay",
        "description": "transport latency: the logical clock advances by "
        "the spec's delay before delivery — nothing is lost, but "
        "timeout/backoff schedules shift",
    },
}


class FaultSpec:
    """One armed site's schedule."""

    __slots__ = ("site", "probability", "after", "times", "delay", "match",
                 "fired")

    def __init__(self, site, probability=None, after=None, times=None,
                 delay=5, match=None):
        if site not in FAULT_SITES:
            raise ReproError(f"unknown fault site {site!r}")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ReproError(f"fault probability {probability!r} not in [0,1]")
        if probability is None and after is None:
            after = 0  # fire deterministically from the first hit
        self.site = site
        self.probability = probability
        self.after = after
        self.times = times
        self.delay = delay
        self.match = match
        self.fired = 0

    def __repr__(self):
        sched = (
            f"p={self.probability}" if self.probability is not None
            else f"after={self.after}"
        )
        return f"FaultSpec({self.site}, {sched}, fired={self.fired})"


class FaultInjector:
    """Seeded, deterministic fault scheduling over the registered sites.

    ``arm`` schedules a site; every subsequent evaluation of that site
    (a *hit*) may *fire* according to the schedule:

    * ``probability=p`` — fire a seeded coin flip per hit;
    * ``after=n`` — the first ``n`` hits are immune (with no probability
      this means: fire deterministically from hit ``n+1`` on);
    * ``times=m`` — stop after ``m`` fires (``None`` = unlimited);
    * ``delay=d`` — ticks of injected wait (``lock.delay`` only);
    * ``match=s`` — only hits whose detail string contains ``s`` count
      (e.g. a log-record type name or a lock-resource repr).
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._specs = {}
        self.active = False
        self.tracer = NULL_TRACER  # replaced by install_fault_injector
        self.hits = {}  # site -> evaluations while armed
        self.fired = {}  # site -> times the fault actually triggered

    def __repr__(self):
        return (
            f"FaultInjector(seed={self.seed}, "
            f"armed={sorted(self._specs)}, fired={self.fired})"
        )

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(self, site, probability=None, after=None, times=None, delay=5,
            match=None):
        """Schedule ``site`` to fail; returns the :class:`FaultSpec`."""
        spec = FaultSpec(site, probability, after, times, delay, match)
        self._specs[site] = spec
        self.active = True
        return spec

    def disarm(self, site=None):
        """Stop injecting at ``site`` (or everywhere, when ``None``)."""
        if site is None:
            self._specs.clear()
        else:
            self._specs.pop(site, None)
        self.active = bool(self._specs)

    def armed_sites(self):
        return sorted(self._specs)

    def counts(self):
        """Evaluation/fire totals for ``Database.stats()``."""
        return {
            "armed": self.armed_sites(),
            "hits": dict(sorted(self.hits.items())),
            "fired": dict(sorted(self.fired.items())),
        }

    # ------------------------------------------------------------------
    # evaluation (hot path; callers guard with `if faults.active:`)
    # ------------------------------------------------------------------

    def fires(self, site, txn_id=None, detail=None):
        """Evaluate ``site``; returns its :class:`FaultSpec` when the
        fault fires this hit, else ``None``."""
        spec = self._specs.get(site)
        if spec is None:
            return None
        if spec.match is not None and (detail is None or spec.match not in detail):
            return None
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        if spec.times is not None and spec.fired >= spec.times:
            return None
        if spec.after is not None and hit <= spec.after:
            return None
        if spec.probability is not None and not (
            self._rng.random() < spec.probability
        ):
            return None
        spec.fired += 1
        self.fired[site] = self.fired.get(site, 0) + 1
        if self.tracer.enabled:
            self.tracer.emit(
                "fault_injected", txn_id=txn_id, site=site, hit=hit,
                action=FAULT_SITES[site]["action"],
            )
        return spec

    def maybe_raise(self, site, txn_id=None, detail=None):
        """Raise :class:`FaultInjected` when ``site`` fires."""
        if self.fires(site, txn_id=txn_id, detail=detail) is not None:
            raise FaultInjected(site, txn_id)

    def maybe_crash(self, site, txn_id=None, committed=False, detail=None):
        """Raise :class:`SimulatedCrash` when ``site`` fires."""
        if self.fires(site, txn_id=txn_id, detail=detail) is not None:
            raise SimulatedCrash(site, committed=committed)


class _NullInjector(FaultInjector):
    """An injector that cannot be armed — the default wired into every
    component, so unconfigured fault sites stay branch-cheap no-ops."""

    def arm(self, site, **kwargs):
        raise ReproError(
            "NULL_INJECTOR cannot be armed; install a FaultInjector via "
            "Database.install_fault_injector() instead"
        )


NULL_INJECTOR = _NullInjector()
