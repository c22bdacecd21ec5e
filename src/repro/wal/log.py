"""The log manager.

Assigns LSNs, maintains each transaction's backchain (``prev_lsn``),
tracks the flushed prefix, and simulates crashes by discarding the
unflushed suffix.

The log is its bytes: each record's encoding, framed as a segment body
holds it (:func:`repro.wal.codec.frame`), in one buffer with an LSN ->
offset array beside it, and no record object. Readers take record
headers alone (:meth:`LogManager.headers`), a CRC per stored payload
(the salvage scan) or a record decoded against the log's layout table
(:meth:`LogManager.record_at`); a segment dump writes slices of the
buffer, and a chain read back is the buffer again.

Flushing policy: :meth:`LogManager.flush` advances ``flushed_lsn`` to the
log tail. Without group commit the engine forces a flush inside every
commit (WAL commit rule); with group commit on, the
:class:`~repro.wal.group_commit.GroupCommitCoordinator` batches many
commits behind one flush and observes durability progress through the
``flush_listener`` hook. The durable prefix is the frames up to
``flushed_lsn``'s; a simulated crash (:meth:`LogManager.crash`) cuts the
buffer where the first unflushed frame starts — exactly what a real
power failure does to an OS page cache.
"""

import zlib
from array import array

from repro.common import FaultInjected, ReproError, WalError
from repro.faults import NULL_INJECTOR
from repro.obs.metrics import Histogram
from repro.obs.tracer import NULL_TRACER
from repro.wal import codec
from repro.wal.records import (
    RECORD_CLASSES,
    CheckpointRecord,
    CommitRecord,
    EndRecord,
    LogRecord,
    RowChangeRecord,
)

_FRAME = codec.FRAME_HEADER.size
_COMMIT, _CHECKPOINT = CommitRecord.code, CheckpointRecord.code


class LogManager:
    """Append-only log with per-transaction backchains.

    ``layouts`` is the ``{id: RowLayout}`` table records decode against:
    the engine passes its catalog's, and a log standing alone learns
    each layout a record is appended under.
    """

    def __init__(self, tracer=NULL_TRACER, faults=None, layouts=None):
        #: the frames, back to back: a segment body
        self._frames = bytearray()
        #: where each record's frame starts, by ``lsn - first_lsn``
        self._offsets = array("Q")
        #: the LSN of the oldest record held (a recycled chain starts late)
        self.first_lsn = 1
        self.layouts = {} if layouts is None else layouts
        self._txn_last_lsn = {}
        self._txn_bytes = {}  # txn_id -> encoded bytes appended
        #: remembered at append (and rebuilt by a cut or a load): the
        #: newest checkpoint's and COMMIT's LSNs and the highest txn_id
        self.checkpoint_lsn = None
        self.last_commit_lsn = None
        self.max_txn_id = 0
        self.flushed_lsn = 0
        self.flush_count = 0
        self.flush_records = Histogram()  # records made durable per flush
        self.tracer = tracer
        self.faults = faults if faults is not None else NULL_INJECTOR
        #: record lines load_segments() dropped at or past a break in the
        #: chain; reported by the salvage pass, never silently dropped.
        self.undecodable_tail = 0
        #: called with the new ``flushed_lsn`` after every advance; the
        #: group-commit coordinator hangs off this to settle tickets even
        #: when the flush was triggered elsewhere (checkpoint, dump).
        self.flush_listener = None

    def __len__(self):
        return len(self._offsets)

    @property
    def bytes_estimate(self):
        """The encoded bytes of the records held: the buffer less a frame
        header per record — what a restore loads and a crash cuts too."""
        return len(self._frames) - _FRAME * len(self._offsets)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append(self, record):
        """Assign an LSN, link the backchain, and append ``record``'s
        bytes."""
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
                # evidence is gone. Exists so the consistency oracle can prove
                # it detects corruption. The record gets no LSN.
                return None
            fail_after_append = self.faults.fires(
                "wal.append", txn_id=record.txn_id, detail=record_name
            ) is not None
        txn_id = record.txn_id
        lsn = record.lsn = self.first_lsn + len(self._offsets)
        if txn_id is not None:
            record.prev_lsn = self._txn_last_lsn.get(txn_id)
        # One encoding per record (repro.wal.codec), kept: its length is
        # the record's size — which benchmarks compare across logging
        # strategies — and its frame is what a segment body holds.
        try:
            payload = record.encoded()
        except ReproError:
            # a value with no layout: nothing has been appended
            record.lsn = record.prev_lsn = None
            raise
        self._offsets.append(len(self._frames))
        self._frames += codec.frame(payload, zlib.crc32(payload))
        size = len(payload)
        if record.code == _COMMIT:
            self.last_commit_lsn = lsn
        elif record.code == _CHECKPOINT:
            self.checkpoint_lsn = lsn
        elif isinstance(record, RowChangeRecord):
            self.layouts.setdefault(record.layout.id, record.layout)
        if txn_id is not None:
            if txn_id > self.max_txn_id:
                self.max_txn_id = txn_id
            self._txn_last_lsn[txn_id] = lsn
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
        return self.first_lsn + len(self._offsets) - 1

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
            for cls, lsn, txn_id, _ in self.headers(previous + 1, target):
                if self.faults.fires(
                    "wal.corrupt", txn_id=txn_id, detail=cls.__name__,
                ) is not None:
                    self.corrupt(lsn)
        self.flush_count += 1
        self.flush_records.observe(advanced)
        if self.tracer.enabled:
            self.tracer.emit(
                "wal_flush", flushed_lsn=target, records=advanced
            )
        if self.flush_listener is not None:
            self.flush_listener(target)

    def corrupt(self, lsn):
        """Flip one bit of the stored record at ``lsn`` under its CRC, as
        a bit flip in the durable stream would (test / harness helper;
        the ``wal.corrupt`` fault site does the same from a seeded
        schedule). In a row change's row or deltas the bit is the lowest
        of the last value byte whose flip still decodes — so with
        checksums off the frame reads back as another record, silently
        poisonous; a record with no such byte gets a damaged CRC instead
        (detectable, never silently wrong)."""
        at, end = self.span(lsn)
        frames = self._frames
        if issubclass(self.header_at(lsn)[0], RowChangeRecord):
            # the row or deltas start after the header, layout id and key
            _, body = codec.unpack_key(
                frames, at + _FRAME + codec.RECORD_HEADER.size + 2
            )
            for byte in range(end - 1, body, -1):
                frames[byte] ^= 1
                try:
                    LogRecord.decode(frames, self.layouts, at + _FRAME, end)
                    return
                except WalError:
                    frames[byte] ^= 1
        frames[at + 4:at + _FRAME] = bytes(
            b ^ 0x5A for b in frames[at + 4:at + _FRAME]
        )

    def damaged_lsn(self):
        """The LSN of the first stored record whose payload fails its
        frame's CRC, or ``None``: the salvage scan."""
        unpack = codec.FRAME_HEADER.unpack_from
        with memoryview(self._frames) as frames:
            for i, at in enumerate(self._offsets):
                length, crc = unpack(frames, at)
                if zlib.crc32(frames[at + _FRAME:at + _FRAME + length]) != crc:
                    return self.first_lsn + i
        return None

    def truncate_from(self, lsn):
        """Cut every record with ``lsn >= lsn`` off the buffer — the
        salvage cut after a failed checksum, or a crash's at the durable
        boundary. Returns how many records were dropped; LSNs restart at
        the cut."""
        # byte counts belonged to transactions the cut or crash killed
        self._txn_bytes = {}
        keep = max(lsn - self.first_lsn, 0)
        dropped = len(self._offsets) - keep
        if dropped <= 0:
            return 0
        del self._frames[self._offsets[keep]:]
        del self._offsets[keep:]
        if self.flushed_lsn >= lsn:
            self.flushed_lsn = lsn - 1
        self._rebuild_heads()
        return dropped

    def _rebuild_heads(self):
        """After a cut or a load: backchain heads for the transactions the
        surviving records leave open (a COMMIT or an END ended its own),
        and what :meth:`append` remembers."""
        heads = self._txn_last_lsn = {}
        self.checkpoint_lsn = self.last_commit_lsn = None
        self.max_txn_id = 0
        for cls, lsn, txn_id, _ in self.headers():
            if cls is CheckpointRecord:
                self.checkpoint_lsn = lsn
            elif cls is CommitRecord:
                self.last_commit_lsn = lsn
            if txn_id is None:
                continue
            self.max_txn_id = max(self.max_txn_id, txn_id)
            if cls is CommitRecord or cls is EndRecord:
                heads.pop(txn_id, None)
            else:
                heads[txn_id] = lsn

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
        """Cut the buffer at the durable prefix, as a power failure
        would. Returns how many records were discarded."""
        return self.truncate_from(self.flushed_lsn + 1)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def span(self, lsn):
        """Where the record's frame starts in the buffer, and where its
        payload (the frame's end) ends."""
        i = lsn - self.first_lsn
        if not 0 <= i < len(self._offsets):
            raise WalError(f"no record with LSN {lsn}")
        at = self._offsets[i]
        return at, at + _FRAME + codec.FRAME_HEADER.unpack_from(self._frames, at)[0]

    def headers(self, from_lsn=1, to_lsn=None):
        """``(record class, lsn, txn_id, prev_lsn)`` for each record with
        ``from_lsn <= lsn <= to_lsn`` (default: the tail), in LSN order —
        read from the stored headers, decoding nothing. A damaged header
        reads as it is (its class ``None`` for an unknown type code)."""
        first = self.first_lsn
        start = max(from_lsn - first, 0)
        stop = len(self._offsets) if to_lsn is None else to_lsn - first + 1
        frames, unpack = self._frames, codec.FRAMED_RECORD_HEADER.unpack_from
        for at in self._offsets[start:stop]:
            _, _, kind, lsn, txn_id, prev_lsn = unpack(frames, at)
            yield (
                RECORD_CLASSES[kind & codec.CODE_MASK], lsn,
                txn_id if kind & codec.HAS_TXN else None,
                prev_lsn if kind & codec.HAS_PREV else None,
            )

    def header_at(self, lsn):
        """:meth:`headers` of the one record at ``lsn``."""
        self.span(lsn)  # a WalError when there is none
        return next(self.headers(lsn, lsn))

    def payload(self, lsn):
        """The stored bytes of the record at ``lsn``, as appended."""
        at, end = self.span(lsn)
        return bytes(self._frames[at + _FRAME:end])

    def record_at(self, lsn):
        """The record at ``lsn``, decoded from its stored bytes against
        the layout table. LSNs are dense from :attr:`first_lsn`
        (``load_segments`` stops at the first gap), so the offset is one
        index away."""
        at, end = self.span(lsn)
        return LogRecord.decode(self._frames, self.layouts, at + _FRAME, end)

    def records(self, from_lsn=1, changes_rows=False):
        """Decode and yield every record with ``lsn >= from_lsn`` in LSN
        order — with ``changes_rows``, only those whose class
        :attr:`~repro.wal.records.LogRecord.changes_rows` (redo's), the
        others passed over on their type byte."""
        frames, offsets = self._frames, self._offsets
        start = max(from_lsn - self.first_lsn, 0)
        for i in range(start, len(offsets)):
            at = offsets[i]
            if changes_rows and not RECORD_CLASSES[
                frames[at + _FRAME] & codec.CODE_MASK
            ].changes_rows:
                continue
            end = offsets[i + 1] if i + 1 < len(offsets) else len(frames)
            yield LogRecord.decode(frames, self.layouts, at + _FRAME, end)

    def latest_checkpoint(self):
        """The newest checkpoint record, decoded, or ``None``."""
        if self.checkpoint_lsn is None:
            return None
        return self.record_at(self.checkpoint_lsn)

    def records_by_type(self, record_type):
        return [
            self.record_at(lsn) for cls, lsn, _, _ in self.headers()
            if cls is not None and cls.type is record_type
        ]

    def body(self, from_lsn, to_lsn):
        """The frames of the records ``from_lsn`` … ``to_lsn``: a slice
        of the buffer, as a segment body holds them."""
        start, _ = self.span(from_lsn)
        _, end = self.span(to_lsn)
        return bytes(self._frames[start:end])

    @classmethod
    def from_frames(cls, body, offsets, first_lsn, layouts=None):
        """A log holding ``body`` — segment frames, starting at
        ``offsets``, the first of them ``first_lsn``'s — all durable."""
        log = cls(layouts=layouts)
        log._frames = bytearray(body)
        log._offsets = array("Q", offsets)
        log.first_lsn = first_lsn
        log.flushed_lsn = log.tail_lsn()
        log._rebuild_heads()
        return log
