"""Crash recovery: analysis, repeat-history redo, loser undo.

The engine's tables are in-memory, so a crash loses *all* data state and
recovery rebuilds it from the durable page images (read once, never
written) plus the durable log prefix. The three ARIES phases survive
intact:

1. **Analysis** — scan the log; transactions with a COMMIT record are
   winners, everything else still open at the crash is a loser. System
   transactions commit independently of their parents (multi-level
   recovery): a ghost-cleanup that committed stays committed even if the
   user transaction whose delete produced the ghost aborts.
2. **Redo** — repeat history: every data record (including CLRs, including
   losers' records) is re-applied in LSN order.
3. **Undo** — losers are rolled back by walking their backchains newest-
   first, honouring ``undo_next_lsn`` in CLRs so partially rolled-back
   transactions are not compensated twice. Undo writes fresh CLRs so a
   crash *during recovery* is itself recoverable.

The escrow point: :class:`~repro.wal.records.EscrowDeltaRecord` redo/undo
are relative (+delta / -delta), so the interleaved histories that escrow
locking permits recover to exactly the committed sums. Physical
before/after-image records cannot promise that — the R4 experiment runs
both through this same recovery driver and shows the divergence.

Two hardening layers sit on top of the classic pipeline:

* **Salvage** (:func:`salvage`) runs before analysis: it scans the
  durable prefix for the first record whose checksum stamp no longer
  matches its payload, truncates the log there, and classifies the loss
  — committed transactions whose COMMIT fell past the cut
  (``lost_commits``) versus uncommitted tail garbage. The loss is never
  silent: it lands in ``RecoveryReport.salvage`` (or, under
  ``salvage_policy="strict"``, in a raised
  :class:`~repro.common.errors.WalCorruptionError`).
* **Restartability**: each phase evaluates a per-record crash fault site
  (``recovery.analysis`` / ``recovery.redo`` / ``recovery.undo``), and
  undo hardens every CLR it writes (``durable=True``), so a crash *inside
  recovery* is survivable — the next attempt repeats history and resumes
  rollback from the durable CLRs' ``undo_next_lsn`` chain instead of
  compensating twice. Repeated partial recoveries converge to the same
  state as one uninterrupted run.
"""

from repro.wal.records import (
    AbortRecord,
    CommitRecord,
    CompensationRecord,
    EndRecord,
    PrepareRecord,
    RecordType,
)


class RecoveryTarget:
    """The two verbs recovery (and online rollback) drives — the paper's
    split. Image records *assign* an entry, which is idempotent; delta
    records *add* to the current row, which is not, and is what the redo
    gate exists for. Each takes ``lsn``, the log record being applied (a
    CLR's, for an undo), which the row it changes is stamped with.

    The engine's :class:`~repro.core.database.Database` implements them
    as direct index manipulations that bypass locking — recovery runs
    single-threaded before transactions restart, and online rollback runs
    under the aborting transaction's own locks.
    """

    def set_entry(self, index_name, key, entry, lsn):
        """Make the entry at ``key`` be ``entry``: ``None`` (no slot) or
        ``(row, is_ghost)``."""
        raise NotImplementedError

    def add_deltas(self, index_name, key, deltas, lsn):
        """Add ``deltas`` (column -> signed amount) to the row at
        ``key``; a key with no entry is left alone."""
        raise NotImplementedError


class RecoveryReport:
    """What recovery did — asserted on by tests, printed by benches."""

    def __init__(self):
        self.winners = set()
        self.losers = set()
        self.redo_count = 0
        self.undo_count = 0
        self.clrs_written = 0
        self.analyzed_records = 0
        #: data records the gate proved already reflected in the durable
        #: page images.
        self.redo_skipped = 0
        #: durable page images loaded to seed state before redo.
        self.pages_loaded = 0
        #: salvage report dict from the pre-analysis checksum scan, or
        #: ``None`` when the durable log was clean (see :func:`salvage`).
        self.salvage = None
        #: recovery attempts that crashed before this one completed — 0
        #: for a single-shot recovery, N after a crash storm of N.
        self.restarts = 0
        #: transactions with a durable PREPARE record but no decision:
        #: redone (repeat history) but *not* undone — they await the
        #: coordinator's verdict, holding their locks until resolved.
        self.in_doubt = set()

    def as_dict(self):
        return {
            "winners": sorted(self.winners),
            "losers": sorted(self.losers),
            "in_doubt": sorted(self.in_doubt),
            "redo_count": self.redo_count,
            "undo_count": self.undo_count,
            "clrs_written": self.clrs_written,
            "analyzed_records": self.analyzed_records,
            "redo_skipped": self.redo_skipped,
            "pages_loaded": self.pages_loaded,
            "salvage": self.salvage,
            "restarts": self.restarts,
        }


def salvage(log, verify=True):
    """Pre-analysis checksum scan: truncate at the first bad record.

    Scans the log for the first record whose payload no longer matches
    its durable checksum stamp and truncates the log there (recovery must
    not replay garbage, and nothing after a corrupt record can be
    trusted). Returns a report dict classifying the loss, or ``None``
    when there was nothing to salvage:

    * ``truncated_lsn`` / ``corrupt_record`` — where the cut happened and
      the record type found corrupt (``None`` if only the file tail was
      undecodable);
    * ``dropped_records`` — records discarded by the cut;
    * ``lost_commits`` — txn ids whose COMMIT record fell past the cut:
      *committed work was rolled back*, the honest-loss case;
    * ``tail_garbage`` — dropped records belonging to no lost commit
      (uncommitted tail work recovery would have undone anyway);
    * ``undecodable_lines`` — record lines (and whole segments)
      ``load_segments`` dropped at or past a break in the chain.

    With ``verify=False`` (checksums disabled) the scan is skipped — the
    negative control proving corruption then goes undetected here and
    must be caught downstream by the integrity checker.
    """
    bad = None
    if verify:
        for record in log.records():
            if not record.verify_checksum():
                bad = record
                break
    if bad is None and not log.undecodable_tail:
        return None
    report = {
        "truncated_lsn": None,
        "corrupt_record": None,
        "dropped_records": 0,
        "lost_commits": [],
        "tail_garbage": 0,
        "undecodable_lines": log.undecodable_tail,
    }
    if bad is not None:
        dropped = log.truncate_from(bad.lsn)
        lost = {
            r.txn_id for r in dropped
            if isinstance(r, CommitRecord) and r.txn_id is not None
        }
        report["truncated_lsn"] = bad.lsn
        report["corrupt_record"] = type(bad).__name__
        report["dropped_records"] = len(dropped)
        report["lost_commits"] = sorted(lost)
        report["tail_garbage"] = sum(
            1 for r in dropped if r.txn_id not in lost
        )
    return report


def analyze(log, from_lsn=1, faults=None):
    """Phase 1: classify transactions.

    Returns ``(winners, losers, count, in_doubt)`` where ``losers`` maps
    txn_id -> the LSN to start undo from (its last log record), and
    ``in_doubt`` is the set of transactions with a durable PREPARE record
    but no commit/abort outcome — they are open but must *not* be undone
    (presumed abort resolves them later, from the coordinator's decision
    log, not from this partition's local knowledge).
    """
    winners = set()
    open_txns = {}
    prepared = set()
    count = 0
    for record in log.records(from_lsn):
        if faults is not None and faults.active:
            faults.maybe_crash(
                "recovery.analysis", txn_id=record.txn_id,
                detail=type(record).__name__,
            )
        count += 1
        txn_id = record.txn_id
        if isinstance(record, (CommitRecord, EndRecord)):
            # COMMIT closes a winner. END closes a rollback: every undo
            # was applied and logged — an ABORT alone does not say that,
            # so a transaction with ABORT but no END is still a loser.
            if isinstance(record, CommitRecord):
                winners.add(txn_id)
            open_txns.pop(txn_id, None)
        elif txn_id is not None:
            # There is no BEGIN: a transaction's first record opens it.
            open_txns[txn_id] = record.lsn
            if isinstance(record, PrepareRecord):
                prepared.add(txn_id)
            elif isinstance(record, AbortRecord):
                # A logged abort (even unfinished) revokes the vote: the
                # coordinator decided, or the branch aborted before the
                # vote completed — either way it rolls back locally.
                prepared.discard(txn_id)
    in_doubt = prepared.intersection(open_txns)
    losers = {
        t: lsn for t, lsn in open_txns.items() if t not in in_doubt
    }
    return winners, losers, count, in_doubt


def _covered(gate, record):
    """True when the durable winner for ``record``'s key already carries
    its effect. A winner is a full row image as of its LSN, so it covers
    every record up to and including that LSN."""
    inner = record.action if record.type is RecordType.CLR else record
    winner = gate.get((inner.index_name, tuple(inner.key)))
    return winner is not None and record.lsn <= winner[0]


def redo(log, target, from_lsn=1, report=None, faults=None, gate=None):
    """Phase 2: repeat history — replay every data record in LSN order.

    When ``gate`` (the per-key winners read from the durable page
    images, ``{(index, key): (lsn, row, is_ghost)}``) is supplied,
    redo is *gated*: a record whose effect its key's winner already
    carries is skipped instead of re-applied. That is what makes
    checkpointed recovery sound for non-idempotent escrow deltas: a
    delta flushed to disk before the crash must not be added twice. The
    table is only read, so every attempt of a re-entered recovery gates
    identically. Skipped records count into ``report.redo_skipped``.
    """
    for record in log.records(from_lsn):
        if record.changes_rows:
            if faults is not None and faults.active:
                faults.maybe_crash(
                    "recovery.redo", txn_id=record.txn_id,
                    detail=type(record).__name__,
                )
            if gate and _covered(gate, record):
                if report is not None:
                    report.redo_skipped += 1
                continue
            record.redo(target)
            if report is not None:
                report.redo_count += 1


def undo(log, target, losers, report=None, faults=None, durable=False,
         apply=None, stop_after_lsn=None):
    """Phase 3, and every other rollback: walk the losers' backchains
    newest record first (one combined pass in descending LSN order, as
    ARIES does), writing a CLR for each undoable record and END when a
    chain is exhausted — the one place END is written: it says the
    rollback is complete, which no other record does.

    Each CLR is appended first and ``apply(record, lsn)`` then performs
    the undo as of the CLR's LSN; the default reverses the record against
    ``target``. Online rollback passes its own (a pending escrow delta is
    unreserved, not subtracted from a row it never reached) and
    ``stop_after_lsn`` for a savepoint (0: taken before the first
    record): records at or below it are left alone and the transaction
    stays open, so no END.

    ``durable=True`` (recovery's setting) flushes each CLR / END as it is
    written, bypassing the flush fault sites (a crashed recovery is
    re-entered, never retried) — the point of CLRs is lost if a crash
    mid-undo discards them and the next attempt compensates twice.
    Online rollback leaves ``durable=False``: its CLRs ride the normal
    commit-time flush.
    """
    if apply is None:
        def apply(record, lsn):
            record.undo(target, lsn)
    # Each loser's cursor: the LSN of the next record to examine.
    cursors = {t: lsn for t, lsn in losers.items() if lsn is not None}
    while cursors:
        txn_id, lsn = max(cursors.items(), key=lambda item: item[1])
        if stop_after_lsn is not None and lsn <= stop_after_lsn:
            del cursors[txn_id]
            continue
        record = log.record_at(lsn)
        if faults is not None and faults.active:
            faults.maybe_crash(
                "recovery.undo", txn_id=txn_id,
                detail=type(record).__name__,
            )
        if isinstance(record, CompensationRecord):
            # Already-compensated work: skip to undo_next.
            next_lsn = record.undo_next_lsn
        else:
            if record.is_undoable():
                apply(record, log.append(CompensationRecord(
                    txn_id,
                    compensated_lsn=record.lsn,
                    undo_next_lsn=record.prev_lsn,
                    action=record,
                )))
                if report is not None:
                    report.undo_count += 1
                    report.clrs_written += 1
                if durable:
                    log.flush_no_faults()
            next_lsn = record.prev_lsn
        if next_lsn is None:
            if stop_after_lsn is None:
                log.append(EndRecord(txn_id))
                if durable:
                    log.flush_no_faults()
            del cursors[txn_id]
        else:
            cursors[txn_id] = next_lsn


def _prepared_on_backchain(log, last_lsn):
    """True when the backchain starting at ``last_lsn`` carries a PREPARE
    record — used to classify transactions that were active at a
    checkpoint and silent afterwards, whose prepare (if any) predates the
    analysis window."""
    lsn = last_lsn
    while lsn is not None:
        record = log.record_at(lsn)
        if isinstance(record, PrepareRecord):
            return True
        lsn = record.prev_lsn
    return False


def recover(log, target, faults=None, salvage_report=None, gate=None):
    """Run full recovery against ``target``; returns a RecoveryReport.

    ``gate`` is the table of per-key winners the caller read from the
    durable page images and already seeded into ``target`` (see
    :func:`redo`). With it, analysis starts just after the latest
    checkpoint and redo rewinds to ``min(recLSN)`` of the checkpoint's
    dirty-page table: the oldest change that might not have reached
    disk. Without it — a torn page, a store written under dropped log
    records, or a fresh process that never had the page store — the
    checkpoint summarizes state nobody holds, so recovery replays the
    whole log from LSN 1, ungated, exactly as if no checkpoint existed.
    ``faults`` (when armed) exposes the per-record crash sites
    ``recovery.analysis`` / ``recovery.redo`` / ``recovery.undo``;
    ``salvage_report`` — the result of the caller's :func:`salvage` pass
    — is carried through onto the returned report.
    """
    report = RecoveryReport()
    report.salvage = salvage_report
    checkpoint = log.latest_checkpoint() if gate else None
    from_lsn = checkpoint.lsn + 1 if checkpoint is not None else 1
    winners, losers, analyzed, in_doubt = analyze(log, from_lsn, faults=faults)
    redo_from = from_lsn
    if checkpoint is not None:
        # Transactions active at the checkpoint may have no records after
        # it; they are losers unless a later COMMIT appeared — or
        # in-doubt, if their backchain carries a PREPARE the truncated
        # analysis window never saw.
        for txn_id in checkpoint.active_txns:
            tail = log.last_lsn_of(txn_id)  # None: rolled back to its END
            if tail is None or txn_id in winners | set(losers) | in_doubt:
                continue
            if _prepared_on_backchain(log, tail):
                in_doubt.add(txn_id)
            else:
                losers[txn_id] = tail
        # Dirty pages' oldest unflushed change may predate the
        # checkpoint record itself.
        redo_from = min([from_lsn, *checkpoint.dirty_pages.values()])
    report.winners = winners
    report.losers = set(losers)
    report.in_doubt = in_doubt
    report.analyzed_records = analyzed
    redo(log, target, redo_from, report, faults=faults, gate=gate)
    undo(log, target, losers, report, faults=faults, durable=True)
    for txn_id in losers:
        log.forget(txn_id)  # rolled back to its END
    # Recovery's own durability point bypasses the flush fault sites:
    # nothing retries a failed recovery flush, it just re-enters.
    log.flush_no_faults()
    return report
