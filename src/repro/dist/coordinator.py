"""The two-phase-commit coordinator and its decision log.

The coordinator owns a :class:`~repro.wal.log.LogManager` of its own —
the **decision log** — holding one
:class:`~repro.wal.records.DecisionRecord` per decided global
transaction. The protocol's durability points:

* a participant's vote is binding once its PREPARE record is durable in
  *that partition's* WAL (``Participant.prepare``);
* the coordinator's decision is binding once the DecisionRecord is
  durable in *this* log (``decide`` flushes it);
* anything less resolves by **presumed abort**: a gid with no durable
  decision (``durable_decision`` returns ``None``) aborts. The
  coordinator never logs abort outcomes' completion, never waits for
  acks, and forgets aborted gids for free — the classic optimization.

Two fault sites live here. ``dist.decision_lost`` drops the decision
between append and flush (written but never durable, nobody notified).
``dist.coordinator_crash`` kills the coordinator *process*: the decision
log loses its volatile suffix and the instance is dead (``crashed``) —
every further ``decide`` refuses. The facade also evaluates the same
site at the other protocol steps (``prepare_send:<pid>``,
``decide_send:<pid>``), so chaos can kill the coordinator anywhere in
the protocol, not only at the decision point.

Recovery is :meth:`TwoPhaseCoordinator.recover`: a fresh instance over
the *durable prefix* of the old decision log — the volatile suffix died
with the process — plus a bumped epoch so new gids can never collide
with pre-crash in-flight ones. Everything else (which branches are still
awaiting a decision) comes from partition in-doubt reports, which the
facade gathers over the network; undecided gids resolve by presumed
abort.

``decide`` is idempotent per gid: a duplicate delivery of the same
decision re-answers the original durability verdict without appending a
second DecisionRecord; a *conflicting* decision for a decided gid is a
protocol bug and raises.
"""

from repro.common.errors import TransactionStateError
from repro.faults import NULL_INJECTOR
from repro.obs.tracer import NULL_TRACER
from repro.wal import LogManager
from repro.wal.records import DecisionRecord


class TwoPhaseCoordinator:
    """Gid allocation, decision logging, durable-decision lookup."""

    def __init__(self, tracer=NULL_TRACER, faults=None, log=None, epoch=0):
        self.tracer = tracer
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.log = log if log is not None else LogManager()
        self.epoch = epoch
        self.crashed = False
        self._next_gid = 1
        #: gid -> durable decision (rebuilt from the log on recovery)
        self._decisions = {}
        #: durable decisions by outcome
        self.decided = {"commit": 0, "abort": 0}
        #: decisions that never reached the durable prefix (lost / crash)
        self.lost_decisions = 0

    @classmethod
    def recover(cls, crashed, tracer=NULL_TRACER, faults=None):
        """A fresh coordinator standing on the old one's durable log.

        Only the durable prefix survives — the crash already discarded
        the volatile suffix — and the decided counters and per-gid
        decision table are rebuilt solely from it. The epoch bump keeps
        new gids disjoint from every gid the dead incarnation issued.
        """
        coordinator = cls(
            tracer=tracer, faults=faults,
            log=crashed.log, epoch=crashed.epoch + 1,
        )
        flushed = coordinator.log.flushed_lsn
        for record in coordinator.log.records():
            if record.lsn > flushed:
                break
            if isinstance(record, DecisionRecord):
                if record.gid not in coordinator._decisions:
                    coordinator.decided[record.decision] += 1
                coordinator._decisions[record.gid] = record.decision
        return coordinator

    def new_gid(self):
        if self.epoch == 0:
            gid = f"G{self._next_gid}"
        else:
            gid = f"G{self._next_gid}.{self.epoch}"
        self._next_gid += 1
        return gid

    def crash(self):
        """Kill this incarnation: the volatile decision-log suffix is
        gone and no further decisions can be made on this instance."""
        self.log.crash()
        self.crashed = True

    def decide(self, gid, decision, participants):
        """Log the phase-2 outcome for ``gid``; returns ``True`` when the
        decision became durable (binding), ``False`` when an armed fault
        lost it — the gid is then undecided and presumed abort governs."""
        if self.crashed:
            raise TransactionStateError(
                f"coordinator crashed; recover before deciding {gid}"
            )
        prior = self._decisions.get(gid)
        if prior is not None:
            if prior != decision:
                raise TransactionStateError(
                    f"{gid} already decided {prior}, refusing {decision}"
                )
            # Duplicate delivery: one durable DecisionRecord is enough.
            return True
        participants = sorted(participants)
        self.log.append(DecisionRecord(gid, decision, participants))
        durable = True
        if self.faults.active:
            if self.faults.fires("dist.decision_lost", detail=gid) is not None:
                # Written but never flushed; no participant is notified.
                durable = False
            elif self.faults.fires(
                "dist.coordinator_crash", detail=gid
            ) is not None:
                # The coordinator process dies at the decision point.
                self.crash()
                durable = False
        if durable:
            self.log.flush_no_faults()
            self.decided[decision] += 1
            self._decisions[gid] = decision
        else:
            self.lost_decisions += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "2pc_decide", gid=gid, decision=decision, durable=durable,
                participants=participants,
            )
        return durable

    def durable_decision(self, gid):
        """The decision for ``gid`` from the *durable* prefix of the
        decision log, or ``None`` — in which case presumed abort applies.
        This is what a recovering partition consults to resolve its
        in-doubt branches."""
        decision = None
        flushed = self.log.flushed_lsn
        for record in self.log.records():
            if record.lsn > flushed:
                break
            if isinstance(record, DecisionRecord) and record.gid == gid:
                decision = record.decision
        return decision

    def stats(self):
        return {
            "decided": dict(self.decided),
            "lost_decisions": self.lost_decisions,
            "log_records": len(self.log),
            "epoch": self.epoch,
            "crashed": self.crashed,
        }
