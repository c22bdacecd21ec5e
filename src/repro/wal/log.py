"""The log manager.

Assigns LSNs, maintains each transaction's backchain (``prev_lsn``),
tracks the flushed prefix, and simulates crashes by discarding the
unflushed suffix. The log lives in memory as record objects; its one
on-disk form is the segment chain of :mod:`repro.wal.segments`.

Flushing policy: :meth:`LogManager.flush` advances ``flushed_lsn`` to the
log tail. Without group commit the engine forces a flush inside every
commit (WAL commit rule); with group commit on, the
:class:`~repro.wal.group_commit.GroupCommitCoordinator` batches many
commits behind one flush and observes durability progress through the
``flush_listener`` hook. A simulated crash (:meth:`LogManager.crash`)
truncates everything beyond the flushed prefix — exactly what a real
power failure does to an OS page cache.
"""

import zlib

from repro.common import FaultInjected, ReproError, WalError
from repro.faults import NULL_INJECTOR
from repro.obs.metrics import Histogram
from repro.obs.tracer import NULL_TRACER
from repro.wal.records import CheckpointRecord, RecordType


class LogManager:
    """Append-only log with per-transaction backchains."""

    def __init__(self, tracer=NULL_TRACER, faults=None, checksums=True):
        self._records = []
        self._next_lsn = 1
        self._txn_last_lsn = {}
        self._txn_bytes = {}  # txn_id -> encoded bytes appended
        self.flushed_lsn = 0
        self.flush_count = 0
        self.flush_records = Histogram()  # records made durable per flush
        self.bytes_estimate = 0
        self.tracer = tracer
        self.faults = faults if faults is not None else NULL_INJECTOR
        #: stamp a CRC on every record as it is appended, so the
        #: salvage scan (repro.wal.recovery.salvage) can detect a
        #: corrupted durable stream. EngineConfig(wal_checksums=False)
        #: turns this off — the negative control for salvage honesty.
        self.checksums = checksums
        #: record lines load_segments() dropped at or past a break in the
        #: chain; reported by the salvage pass, never silently dropped.
        self.undecodable_tail = 0
        #: called with the new ``flushed_lsn`` after every advance; the
        #: group-commit coordinator hangs off this to settle tickets even
        #: when the flush was triggered elsewhere (checkpoint, dump).
        self.flush_listener = None

    def __len__(self):
        return len(self._records)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append(self, record):
        """Assign an LSN, link the backchain, and append ``record``."""
        if record.lsn is not None:
            raise WalError(f"record already has LSN {record.lsn}")
        fail_after_append = False
        if self.faults.active and record.is_undoable():
            # Fault sites gate on undoable (data) records only: protocol
            # records (COMMIT/ABORT/END/CLR) must never fail here,
            # or abort itself could not be made to succeed.
            record_name = type(record).__name__
            if self.faults.fires(
                "wal.append.lost", txn_id=record.txn_id, detail=record_name
            ) is not None:
                # Unsound by design: the mutation happened (or will), the
                # evidence is gone. Exists so the chaos oracle can prove
                # it detects corruption. The record gets no LSN.
                return None
            fail_after_append = self.faults.fires(
                "wal.append", txn_id=record.txn_id, detail=record_name
            ) is not None
        txn_id = record.txn_id
        record.lsn = self._next_lsn
        if txn_id is not None:
            record.prev_lsn = self._txn_last_lsn.get(txn_id)
        # One encoding per record (repro.wal.codec): its length is the
        # record's size — the bytes a segment frame carries, which
        # benchmarks compare across logging strategies — and its CRC the
        # durable stamp. The bytes themselves are not kept.
        try:
            encoded = record.encoded()
        except ReproError:
            # a value with no layout: nothing has been appended
            record.lsn = record.prev_lsn = None
            raise
        self._next_lsn += 1
        self._records.append(record)
        size = len(encoded)
        if self.checksums:
            record.stored_crc = zlib.crc32(encoded)
        self.bytes_estimate += size
        if txn_id is not None:
            self._txn_last_lsn[txn_id] = record.lsn
            self._txn_bytes[txn_id] = self._txn_bytes.get(txn_id, 0) + size
        if self.tracer.enabled:
            self.tracer.emit(
                "wal_append", txn_id=record.txn_id, lsn=record.lsn,
                record=type(record).__name__, bytes=size,
            )
        if fail_after_append:
            # The record made it into the append stream before the device
            # failed on the acknowledgement, so rollback can walk through
            # it — failing *before* the append would strand any mutation
            # the caller already applied.
            raise FaultInjected("wal.append", record.txn_id)
        return record.lsn

    def last_lsn_of(self, txn_id):
        """The newest record of an open transaction's backchain; ``None``
        before its first record and once it has ended."""
        return self._txn_last_lsn.get(txn_id)

    def forget(self, txn_id):
        """``txn_id`` has ended: drop its backchain head and byte count,
        returning the encoded bytes of every record it appended."""
        self._txn_last_lsn.pop(txn_id, None)
        return self._txn_bytes.pop(txn_id, 0)

    def tail_lsn(self):
        return self._next_lsn - 1

    # ------------------------------------------------------------------
    # flushing and crash simulation
    # ------------------------------------------------------------------

    def flush(self, up_to_lsn=None):
        """Make the prefix up to ``up_to_lsn`` (default: everything)
        durable."""
        target = self.tail_lsn() if up_to_lsn is None else min(up_to_lsn, self.tail_lsn())
        if target > self.flushed_lsn and self.faults.active:
            if self.faults.fires("wal.torn_tail") is not None:
                # Torn write: everything but the final record lands.
                self._advance_flushed(target - 1)
                raise FaultInjected("wal.torn_tail")
            if self.faults.fires("wal.flush") is not None:
                raise FaultInjected("wal.flush")
        self._advance_flushed(target)

    def _advance_flushed(self, target):
        """Advance the durable boundary, record the batch size, and notify
        the flush listener (group-commit settling)."""
        if target <= self.flushed_lsn:
            return
        previous = self.flushed_lsn
        advanced = target - previous
        self.flushed_lsn = target
        if self.faults.active:
            self._corrupt_newly_durable(previous, target)
        self.flush_count += 1
        self.flush_records.observe(advanced)
        if self.tracer.enabled:
            self.tracer.emit(
                "wal_flush", flushed_lsn=target, records=advanced
            )
        if self.flush_listener is not None:
            self.flush_listener(target)

    def _corrupt_newly_durable(self, previous, target):
        """Evaluate the ``wal.corrupt`` fault site on every record that
        just became durable (``previous < lsn <= target``) — a fired
        site flips the record's payload under its checksum stamp,
        modelling a bit flip in the durable stream."""
        newly = []
        for record in reversed(self._records):
            if record.lsn > target:
                continue
            if record.lsn <= previous:
                break
            newly.append(record)
        for record in reversed(newly):
            if self.faults.fires(
                "wal.corrupt", txn_id=record.txn_id,
                detail=type(record).__name__,
            ) is not None:
                self._corrupt_record(record)

    def _corrupt_record(self, record):
        """Flip the record's payload in place, leaving any checksum stamp
        stale. Numeric payload fields get +1000 (silently poisonous when
        checksums are off); records with no mutable numeric payload get a
        damaged stamp instead (detectable, never silently wrong)."""
        deltas = getattr(record, "deltas", None)
        if deltas:
            column = sorted(deltas)[0]
            deltas[column] += 1000
            return
        for attr in ("row", "after", "new_row", "before", "ghost_row"):
            row = getattr(record, attr, None)
            if row is None:
                continue
            for column in row:
                value = row[column]
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                setattr(record, attr, row.replace(**{column: value + 1000}))
                return
        if record.stored_crc is not None:
            record.stored_crc ^= 0x5A5A5A5A

    def corrupt(self, lsn):
        """Deliberately corrupt the durable record at ``lsn`` (test /
        harness helper; the ``wal.corrupt`` fault site does the same from
        a seeded schedule)."""
        self._corrupt_record(self.record_at(lsn))

    def truncate_from(self, lsn):
        """Drop every record with ``lsn >= lsn`` — the salvage cut after
        a failed checksum, or a crash's at the durable boundary. Returns
        the dropped records (newest-last); LSNs restart at the cut."""
        dropped = [r for r in self._records if r.lsn >= lsn]
        self._records = [r for r in self._records if r.lsn < lsn]
        self._next_lsn = lsn
        if self.flushed_lsn >= lsn:
            self.flushed_lsn = lsn - 1
        self._rebuild_backchain_heads()
        return dropped

    def _rebuild_backchain_heads(self):
        """After a cut: backchain heads for the transactions the
        surviving records leave open (a COMMIT or an END ended its own);
        byte counts belonged to transactions the cut killed."""
        heads = self._txn_last_lsn = {}
        self._txn_bytes = {}
        for record in self._records:
            if record.txn_id is None:
                continue
            if record.type in (RecordType.COMMIT, RecordType.END):
                heads.pop(record.txn_id, None)
            else:
                heads[record.txn_id] = record.lsn

    def flush_for_writeback(self, up_to_lsn):
        """WAL-before-write: make the prefix up to ``up_to_lsn`` durable
        so a dirty page whose ``page_lsn`` lies inside it may be written
        back. Skips the retryable flush fault sites — a page writeback
        is engine housekeeping, not a commit, and surfacing a retryable
        fault from inside an eviction would strand the caller's
        statement mid-mutation."""
        self._advance_flushed(min(up_to_lsn, self.tail_lsn()))

    def flush_no_faults(self):
        """Advance durability to the tail without evaluating the flush
        fault sites. Recovery hardens its CLRs through this: a crashed
        recovery is *re-entered*, never retried, so surfacing a
        retryable flush fault from inside it would be meaningless."""
        self._advance_flushed(self.tail_lsn())

    def crash(self):
        """Discard the unflushed suffix, as a power failure would.

        Returns the list of discarded records (for test assertions).
        """
        return self.truncate_from(self.flushed_lsn + 1)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def records(self, from_lsn=1):
        """Iterate records with ``lsn >= from_lsn`` in LSN order."""
        for record in self._records:
            if record.lsn >= from_lsn:
                yield record

    def record_at(self, lsn):
        """Fetch one record by LSN. LSNs are dense from the first
        record's (``load_segments`` stops at the first gap), so the
        offset is the answer."""
        records = self._records
        if records:
            offset = lsn - records[0].lsn
            if 0 <= offset < len(records) and records[offset].lsn == lsn:
                return records[offset]
        raise WalError(f"no record with LSN {lsn}")

    def latest_checkpoint(self):
        """The newest checkpoint record, or ``None``."""
        for record in reversed(self._records):
            if isinstance(record, CheckpointRecord):
                return record
        return None

    def records_by_type(self, record_type):
        return [r for r in self._records if r.type is record_type]
