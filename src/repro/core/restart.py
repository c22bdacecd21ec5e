"""Checkpoint, crash and recovery: which durable pages vouch for which log.

:class:`Restart` owns the engine's restart state — the last checkpoint
LSN, the commits since it, recovery attempts a crash interrupted and the
salvage report carried across them — and every decision pairing the
durable page store with a log: what a checkpoint writes back and records
(:meth:`~Restart.checkpoint`), whether recovery may seed from the pages
(:meth:`~Restart._seed`), whether a log read back from segment files may
be adopted (:meth:`~Restart._adopt`), and how much of the log must be
kept (:meth:`~Restart.recycle_floor`). ``Database.take_checkpoint`` /
``simulate_crash_and_recover`` / ``dump_wal_segments`` /
``load_wal_segments_and_recover`` are the engine's entry points here; a
failed group flush retracts through :meth:`~Restart.retract`.
"""

from repro.common import StorageError, WalCorruptionError
from repro.storage.bufferpool import durable_winners
from repro.views.online import resolve_after_recovery
from repro.wal import CheckpointRecord, recover, salvage
from repro.wal.segments import (
    dump_segments,
    load_segments,
    read_layouts,
    recycle_segments,
)


class Restart:
    """The checkpoint / recovery driver of one engine."""

    def __init__(self, db):
        self._db = db
        self._checkpoint_lsn = None
        self._since_checkpoint = 0
        #: recovery attempts since the last completed recovery — nonzero
        #: while a crash storm is interrupting recovery itself
        self._attempts = 0
        self._pending_salvage = None  # carried across recovery re-entries

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Write back the leaves dirty since before the previous
        checkpoint (every dirty leaf, when the log holds none yet), then
        log the ARIES checkpoint record: no data, just the
        active-transaction table — in-doubt branches included — and the
        dirty-page table the write-back left (``docs/STORAGE.md`` §4 rule
        (c)), so redo never starts before the penultimate checkpoint."""
        db = self._db
        pool = db.indexes.pool
        pool.write_older_than(self._checkpoint_lsn)
        dirty = pool.dirty_page_table()
        att = db._txns.active_txn_table()
        att.update(db.participant.checkpoint_entries())
        record = CheckpointRecord(att, dirty)
        db.log.append(record)
        # Runs inside the commit path when auto-triggered: the scheduled
        # flush fault sites belong to statement-level retries, not to a
        # background checkpointer, so they are not consumed here.
        db.log.flush_no_faults()
        self._checkpoint_lsn = record.lsn
        db.counters.incr("checkpoint.taken")
        if db.tracer.enabled:
            db.tracer.emit(
                "checkpoint_taken", lsn=record.lsn,
                active_txns=len(record.active_txns),
                dirty_pages=len(dirty),
            )
        return record

    def after_commit(self):
        """``EngineConfig(checkpoint_interval=N)``: every N commits, a
        checkpoint through ``Database.take_checkpoint``."""
        interval = self._db.config.checkpoint_interval
        if interval is None:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint >= interval:
            self._since_checkpoint = 0
            self._db.take_checkpoint()

    # ------------------------------------------------------------------
    # crash and recovery
    # ------------------------------------------------------------------

    def crash_and_recover(self):
        """Lose the volatile log suffix and every volatile structure,
        then :meth:`recover`."""
        self._db.log.crash()
        return self.recover()

    def retract(self, member_ids):
        """A group commit's retraction: an inline crash and recovery
        that rolls the group's members ``member_ids`` back."""
        self.crash_and_recover()
        if self._db.sanitizers is not None:
            # Redundant with the notice_crash inside recover for the
            # durability ledger, but the explicit retraction also
            # excises the members from the committed history.
            self._db.sanitizers.notice_retraction(member_ids)

    def recover(self):
        """Rebuild all state from the durable log (seeded from the page
        store when it vouches for the log); returns the
        :class:`~repro.wal.recovery.RecoveryReport`. Re-entrant after a
        ``recovery.*`` crash: undo's CLRs are hardened as written, and
        the report's ``restarts`` counts the interrupted attempts."""
        db = self._db
        restarted = self._attempts > 0
        self._attempts += 1
        if restarted:
            db.counters.incr("recovery.restarts")
            if db.tracer.enabled:
                db.tracer.emit("recovery_restarted", attempt=self._attempts)
        if db.sanitizers is not None:
            # Before recovery appends anything: the volatile suffix is
            # gone, LSNs legally rewind to flushed_lsn + 1, and commit-
            # visible-but-not-durable transactions are rolled back.
            db.sanitizers.notice_crash(db.log.flushed_lsn)
        self._salvage()
        log = db.log
        if log.last_commit_lsn is not None:
            # commit timestamps rise with LSN — each COMMIT is appended at
            # the tick that stamps it — so the last one is the highest
            db.clock.advance_to(log.record_at(log.last_commit_lsn).commit_ts)
        db._wire_volatile(max(db._txns._next_txn_id, log.max_txn_id + 1))
        self._checkpoint_lsn = log.checkpoint_lsn
        self._since_checkpoint = 0
        gate, pages_loaded = self._seed()
        report = recover(
            db.log, db.indexes, faults=db.faults,
            salvage_report=self._pending_salvage, gate=gate,
        )
        report.pages_loaded = pages_loaded
        db.participant.register(report.in_doubt)
        # Settle interrupted online builds before versions are stamped:
        # a vanished build's view must be gone before the baseline walks
        # the index registry.
        resolve_after_recovery(db)
        self._stamp_baseline()
        db.indexes.attach_store()
        report.restarts = self._attempts - 1
        self._attempts = 0
        self._pending_salvage = None
        db.counters.incr("recovery.runs")
        return report

    def _salvage(self):
        """Salvage before anything reads the log (a corrupt record's
        txn_id cannot be trusted); the report stays pending across
        re-entries so the loss lands on the completed report."""
        db = self._db
        fresh = salvage(db.log, verify=db.config.wal_checksums)
        if fresh is None:
            return
        self._pending_salvage = fresh
        db.counters.incr("wal.salvage")
        if db.tracer.enabled:
            db.tracer.emit(
                "wal_salvage",
                truncated_lsn=fresh["truncated_lsn"],
                dropped=fresh["dropped_records"],
                lost_commits=fresh["lost_commits"],
                tail_garbage=fresh["tail_garbage"],
            )
        if fresh["lost_commits"] and db.config.salvage_policy == "strict":
            # The log is already truncated (garbage must never be
            # replayed); the loss is in the raised error. A subsequent
            # recovery call proceeds and still carries the report.
            raise WalCorruptionError(
                "durable log corrupt: committed transactions "
                f"{fresh['lost_commits']} lost past LSN "
                f"{fresh['truncated_lsn']}",
                salvage=fresh,
            )

    def _seed(self):
        """Recovery's one read of the page store: seed the newest entry
        per key into the fresh indexes; returns ``(gate, pages_loaded)``,
        the per-key winners that gate redo. The gate is ``None`` when
        nothing vouches for the store — a torn page, or entries written
        under records salvage just cut away — and recovery then replays
        the whole log. A log holding the whole history and no checkpoint
        is replayed without reading the store at all."""
        db = self._db
        first = db.log.first_lsn if len(db.log) else None
        if db.log.checkpoint_lsn is None and first in (None, 1):
            return None, 0
        gate, loaded, torn = durable_winners(
            db.indexes.store, db.catalog.layouts()
        )
        if torn:
            db.counters.incr("storage.torn_pages", torn)
        cut = (self._pending_salvage or {}).get("truncated_lsn")
        if gate and cut is not None and any(
            lsn >= cut for lsn, _, _ in gate.values()
        ):
            if first is not None and first > 1:
                raise WalCorruptionError(
                    f"durable pages were written under log records lost "
                    f"past LSN {cut}, and the log, recycled, starts at LSN "
                    f"{first}: neither the pages nor a full replay can "
                    f"vouch for a state",
                    salvage=self._pending_salvage,
                )
            gate = None
        db.indexes.seed(gate or {})
        return gate, loaded

    def _stamp_baseline(self):
        """Stamp baseline versions and rebuild the cleanup work list."""
        db = self._db
        ts, horizon = db.clock.tick(), db.snapshots.horizon()
        for name, index in db.indexes.items():
            count_column = db.indexes.count_column(name)
            for key, record in index.scan(include_ghosts=True):
                record.stamp_version(ts, horizon)
                if record.is_ghost or (
                    count_column is not None
                    and record.current_row[count_column] == 0
                ):
                    db.cleanup.enqueue(name, key)

    # ------------------------------------------------------------------
    # segment files
    # ------------------------------------------------------------------

    def dump_segments(self, directory):
        """Persist the flushed log prefix as a chain of fixed-size
        segment files with CRC trailers (``wal.NNNNN.seg``; see
        :mod:`repro.wal.segments`). Returns the written paths."""
        db = self._db
        db.log.flush()
        return dump_segments(
            db.log, directory,
            segment_bytes=db.config.wal_segment_bytes, faults=db.faults,
            layouts=db.indexes.layouts(),
        )

    def load_segments_and_recover(self, directory):
        """Rebuild all state from a segment chain written by
        :meth:`dump_segments`. DDL is not logged, so the receiving engine
        must already have the same tables and views — build the schema,
        load no rows, then restore (see :meth:`_adopt`); the chain's
        layouts bind to its indexes by name, or nothing is redone
        (:meth:`~repro.core.indexes.Indexes.bind`). A broken chain (bad
        trailer CRC, lost segment) is truncated at the break and the loss
        lands in the salvage report."""
        db = self._db
        layouts = db.indexes.bind(read_layouts(directory))
        loaded = load_segments(directory, layouts=layouts)
        return self._adopt(loaded, layouts)

    def _adopt(self, loaded, layouts):
        """Replace the log with one read back from disk and recover from
        it — only when the local pages were written under it.

        Recovery seeds from the page store and gates redo on entry LSNs.
        An engine reloading its *own* dumped chain (possibly recycled)
        qualifies: the loaded log ends at its own last durable record.
        Pages of any other history would pass for the checkpoint's images
        and silently gate out redo, so restore targets must be
        schema-only. Conversely a *recycled* chain (first LSN > 1) needs
        the pages its dropped segments were folded into, which live only
        in the engine that recycled it; without them recovery would
        silently lose everything before the chain's first record.
        Adopted, the log's layout numbering (``layouts``) becomes the
        catalog's — the one table the loaded records and every record
        appended after them decode against.
        """
        db = self._db
        pages = len(db.indexes.store)
        if pages and not self._ends_like_own_log(loaded):
            raise StorageError(
                f"cannot restore a WAL into this engine: its page store "
                f"already holds {pages} page(s) written under "
                f"a different log, which recovery would mistake for the "
                f"loaded log's durable images; restore into a "
                f"schema-only engine"
            )
        if len(loaded) and loaded.first_lsn > 1 and not pages:
            raise StorageError(
                f"cannot restore this WAL into an engine without durable "
                f"pages: the log was recycled and starts at LSN "
                f"{loaded.first_lsn}, and what its dropped records said lives "
                f"only in the page store of the engine that recycled it; "
                f"restore the unrecycled chain"
            )
        if layouts:
            db.catalog.adopt_layouts(layouts)
        loaded.layouts = db.catalog.layouts()
        db.log = loaded
        return self.recover()

    def _ends_like_own_log(self, loaded):
        """The loaded log's last record is this engine's last durable
        one, frame for frame."""
        log = self._db.log
        tail = loaded.tail_lsn()
        if not len(loaded) or tail != log.flushed_lsn:
            return False
        return loaded.body(tail, tail) == log.body(tail, tail)

    def recycle_floor(self):
        """First LSN the log must retain — ``min(checkpoint LSN, min
        recLSN over dirty pages, first LSN of any active transaction or
        in-doubt branch)``; 1 without a checkpoint. An in-doubt branch
        may wait arbitrarily long for its decision, and its records —
        the PREPARE too — must survive recycling for it to resolve."""
        db = self._db
        checkpoint = db.log.latest_checkpoint()
        if checkpoint is None:
            return 1
        candidates = [checkpoint.lsn]
        if checkpoint.dirty_pages:
            candidates.append(min(checkpoint.dirty_pages.values()))
        dirty = db.indexes.pool.dirty_page_table()
        if dirty:
            candidates.append(min(dirty.values()))
        active = set(db._txns.active_txn_table())
        if active:
            for _, lsn, txn_id, _ in db.log.headers():
                if txn_id in active:
                    candidates.append(lsn)
                    break
        candidates.extend(db.participant.first_lsns())
        return min(candidates)

    def recycle_segments(self, directory):
        """Delete dumped segments that lie wholly below
        :meth:`recycle_floor`; returns the removed paths."""
        return recycle_segments(directory, self.recycle_floor())
