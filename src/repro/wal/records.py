"""Log record types.

Two families of data records coexist, and the difference between them is
one of the paper's main points:

* **Physiological records** (insert / update / ghost / revive / cleanup /
  counter image) carry before/after images: each is a pair of index
  entries, ``before_entry()`` and ``after_entry()`` — ``None`` (no slot)
  or ``(row, is_ghost)``, derived from the fields it logs — applied by
  **assignment** (:class:`RowChangeRecord`: redo is ``target.set_entry(
  layout, key, after, lsn)``, undo assigns ``before``). That is idempotent,
  correct for exclusively locked rows, and catastrophically wrong for
  escrow-locked counters, where the before image observed by one
  transaction interleaves with other transactions' committed increments.

* **Logical escrow records** (:class:`EscrowDeltaRecord`) carry only the
  delta and are applied **relative to the current value**: redo is
  ``target.add_deltas(layout, key, +deltas, lsn)``, undo ``-deltas``. Because
  increments commute, both are correct under any interleaving of escrow
  holders — this is what makes E locks recoverable — but neither is
  idempotent: recovery's LSN gate exists for this record alone.

Every record class declares its body as ``fields`` — ``(attribute,
field kind)`` pairs in layout order — and :mod:`repro.wal.codec` packs
them behind one fixed header. :meth:`LogRecord.encoded` runs once per
record, at append: the log keeps those bytes, framed, and nothing else
(:mod:`repro.wal.log`). :meth:`LogRecord.decode` is the one way back —
recovery, rollback and every reader of the log decode the stored bytes
as they need a record, and a record object lives only as long as its
reader holds it. Values keep their type both ways.
A row-change record names its index by a
:class:`~repro.catalog.RowLayout` (packed as its u16 id) and packs rows
and deltas by its positions, so it decodes against a layout table.

Compensation records (:class:`CompensationRecord`) wrap the undo of another
record — its stored bytes, embedded whole; they are redo-only and carry
``undo_next_lsn`` so that a rollback interrupted by a crash resumes where
it left off, ARIES-style.

Both verbs carry the LSN of the record being applied — a redo's own, an
undo's the CLR's — which the target stamps on the row it changes.
"""

import enum

from repro.common import WalError
from repro.wal import codec


class RecordType(enum.Enum):
    COMMIT = "commit"
    ABORT = "abort"
    END = "end"
    INSERT = "insert"
    UPDATE = "update"
    GHOST = "ghost"
    REVIVE = "revive"
    CLEANUP = "cleanup"
    ESCROW_DELTA = "escrow_delta"
    COUNTER_IMAGE = "counter_image"
    CLR = "clr"
    CHECKPOINT = "checkpoint"
    PREPARE = "prepare"
    DECISION = "decision"


#: header type code -> record class, ``None`` for a code no class has
#: (filled as the classes are defined; a code is five bits)
RECORD_CLASSES = [None] * 32


class LogRecord:
    """Base class: LSN plus the per-transaction backchain."""

    __slots__ = ("lsn", "txn_id", "prev_lsn")

    type = None  # overridden
    code = None  # the header's type code: the type's position in RecordType
    #: the record body: (attribute, codec field kind) in layout order
    fields = ()
    #: the body's decoder, compiled from ``fields`` (:func:`_compile`)
    unpack_body = staticmethod(lambda buf, at, record, layouts: at)
    #: redo changes a row of an index (the row-change records and the
    #: CLRs that compensate them): what redo replays
    changes_rows = False

    def __init_subclass__(cls):
        cls.unpack_body = staticmethod(_compile(cls.fields))
        if "type" in cls.__dict__:  # a concrete record class: register it
            cls.code = list(RecordType).index(cls.type)
            RECORD_CLASSES[cls.code] = cls

    def __init__(self, txn_id):
        self.lsn = None  # assigned by the log manager
        self.txn_id = txn_id
        self.prev_lsn = None  # assigned by the log manager

    def __repr__(self):
        return (
            f"{type(self).__name__}(lsn={self.lsn}, txn={self.txn_id}"
            f"{self._extra_repr()})"
        )

    def _extra_repr(self):
        return ""

    def is_undoable(self):
        """True for the records that define ``undo(target, lsn)``; the
        ones with :attr:`changes_rows` define ``redo(target)``."""
        return False

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        """The display form (inspection, traces, tests) — not a storage
        format: nothing reads it back."""
        d = {
            "type": self.type.value,
            "lsn": self.lsn,
            "txn_id": self.txn_id,
            "prev_lsn": self.prev_lsn,
        }
        d.update((attr, getattr(self, attr)) for attr, _ in self.fields)
        return d

    def encoded(self):
        """The record's packed bytes — header (type, lsn, backchain) and
        every body field, which is everything recovery consumes. The log
        calls this once, at append, and keeps the bytes."""
        parts = [
            codec.pack_record_header(
                self.code, self.lsn, self.txn_id, self.prev_lsn
            )
        ]
        out = parts.append
        for attr, (pack, _) in self.fields:
            pack(getattr(self, attr), out, self)
        return b"".join(parts)

    @staticmethod
    def decode(buf, layouts, start=0, end=None):
        """The record :meth:`encoded` produced ``buf[start:end]`` from,
        its layout from ``layouts`` (``{id: RowLayout}``); anything else —
        truncated, overlong, unknown type, tag or layout id, a wrong
        arity — is a :class:`WalError`."""
        try:
            record, at = _decode_at(buf, start, layouts)
        except codec.DECODE_ERRORS as exc:
            raise WalError(f"undecodable log record: {exc!r}") from None
        if at != (len(buf) if end is None else end):
            raise WalError("undecodable log record: wrong length")
        return record


def _decode_at(buf, at, layouts):
    code, lsn, txn_id, prev_lsn, at = codec.unpack_record_header(buf, at)
    cls = RECORD_CLASSES[code]
    if cls is None:
        raise WalError(f"unknown record type code {code}")
    record = cls.__new__(cls)
    record.lsn = lsn
    record.txn_id = txn_id
    record.prev_lsn = prev_lsn
    return record, cls.unpack_body(buf, at, record, layouts)


def _compile(fields):
    """A record class's body decoder: each declared field's unpacker in
    layout order, as straight-line code — the decoder's inner loop,
    unrolled once per class (the way ``dataclasses`` writes its methods)."""
    scope = {f"unpack_{i}": kind[1] for i, (_, kind) in enumerate(fields)}
    lines = [
        f"    record.{attr}, at = unpack_{i}(buf, at, record, layouts)"
        for i, (attr, _) in enumerate(fields)
    ]
    exec(
        "def unpack_body(buf, at, record, layouts):\n"
        + "".join(line + "\n" for line in lines) + "    return at\n",
        scope,
    )
    return scope["unpack_body"]


class CommitRecord(LogRecord):
    type = RecordType.COMMIT
    __slots__ = ("commit_ts",)
    fields = (("commit_ts", codec.VALUE),)

    def __init__(self, txn_id, commit_ts):
        super().__init__(txn_id)
        self.commit_ts = commit_ts

    def _extra_repr(self):
        return f", ts={self.commit_ts}"


class AbortRecord(LogRecord):
    type = RecordType.ABORT


class EndRecord(LogRecord):
    """A rollback ran to completion: every CLR of the chain is logged.
    Written after an abort's CLRs only; a winner's last record is its
    COMMIT."""

    type = RecordType.END


class RowChangeRecord(LogRecord):
    """A record that changes the entry at ``key`` of ``layout``'s index:
    ``before_entry()`` is what it found there and ``after_entry()`` what
    it left, each ``None`` (no slot) or ``(row, is_ghost)``; redo and
    undo assign them."""

    __slots__ = ("layout", "key")
    fields = (("layout", codec.LAYOUT), ("key", codec.KEY))
    changes_rows = True

    def __init__(self, txn_id, layout, key):
        super().__init__(txn_id)
        self.layout = layout
        self.key = key

    @property
    def index_name(self):
        return self.layout.name

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r}"

    def is_undoable(self):
        return True

    def redo(self, target):
        target.set_entry(self.layout, self.key, self.after_entry(), self.lsn)

    def undo(self, target, lsn):
        target.set_entry(self.layout, self.key, self.before_entry(), lsn)


class InsertRecord(RowChangeRecord):
    """A new key inserted into an index. Undo removes it."""

    type = RecordType.INSERT
    __slots__ = ("row",)
    fields = RowChangeRecord.fields + (("row", codec.ROW),)

    def __init__(self, txn_id, layout, key, row):
        super().__init__(txn_id, layout, key)
        self.row = row

    def before_entry(self):
        return None

    def after_entry(self):
        return (self.row, False)


class UpdateRecord(RowChangeRecord):
    """In-place row replacement with before/after images.

    This is the *physical* logging strategy. Using it for escrow-locked
    counters is the anomaly experiment R4 demonstrates — undo restores a
    before image that may predate other transactions' committed deltas.
    """

    type = RecordType.UPDATE
    __slots__ = ("before", "after")
    fields = RowChangeRecord.fields + (
        ("before", codec.ROW), ("after", codec.ROW),
    )

    def __init__(self, txn_id, layout, key, before, after):
        super().__init__(txn_id, layout, key)
        self.before = before
        self.after = after

    def before_entry(self):
        return (self.before, False)

    def after_entry(self):
        return (self.after, False)


class GhostRecord(RowChangeRecord):
    """Logical deletion: the key stays, the record becomes a ghost.
    Undo revives it with the logged row."""

    type = RecordType.GHOST
    __slots__ = ("row",)
    fields = RowChangeRecord.fields + (("row", codec.ROW),)

    def __init__(self, txn_id, layout, key, row):
        super().__init__(txn_id, layout, key)
        self.row = row

    def before_entry(self):
        return (self.row, False)

    def after_entry(self):
        return (self.row, True)


class ReviveRecord(RowChangeRecord):
    """An insert that landed on an existing ghost and revived it.
    Undo re-ghosts the record (restoring the ghost's old row image)."""

    type = RecordType.REVIVE
    __slots__ = ("new_row", "ghost_row")
    fields = RowChangeRecord.fields + (
        ("new_row", codec.ROW), ("ghost_row", codec.ROW),
    )

    def __init__(self, txn_id, layout, key, new_row, ghost_row):
        super().__init__(txn_id, layout, key)
        self.new_row = new_row
        self.ghost_row = ghost_row

    def before_entry(self):
        return (self.ghost_row, True)

    def after_entry(self):
        return (self.new_row, False)


class CleanupRecord(RowChangeRecord):
    """Physical removal of a ghost by the cleaner (a system transaction).
    Undo re-inserts the ghost — needed only if the system transaction
    itself rolls back, which is rare but possible."""

    type = RecordType.CLEANUP
    __slots__ = ("ghost_row",)
    fields = RowChangeRecord.fields + (("ghost_row", codec.ROW),)

    def __init__(self, txn_id, layout, key, ghost_row):
        super().__init__(txn_id, layout, key)
        self.ghost_row = ghost_row

    def before_entry(self):
        return (self.ghost_row, True)

    def after_entry(self):
        return None


class EscrowDeltaRecord(RowChangeRecord):
    """Logical logging of a commutative counter update.

    ``deltas`` maps each counter column of the layout -> signed amount.
    Redo adds the deltas to the current row; undo subtracts them from
    the current row. Neither direction references an absolute value, so
    concurrent escrow transactions recover correctly in any order.
    """

    type = RecordType.ESCROW_DELTA
    __slots__ = ("deltas",)
    fields = RowChangeRecord.fields + (("deltas", codec.DELTAS),)

    def __init__(self, txn_id, layout, key, deltas):
        super().__init__(txn_id, layout, key)
        self.deltas = dict(deltas)

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r} {self.deltas!r}"

    def redo(self, target):
        target.add_deltas(self.layout, self.key, self.deltas, self.lsn)

    def undo(self, target, lsn):
        negated = {c: -d for c, d in self.deltas.items()}
        target.add_deltas(self.layout, self.key, negated, lsn)


class CounterImageRecord(UpdateRecord):
    """Physical (before/after image) logging of an escrow counter update —
    the **unsound** strategy experiment R4 exists to demonstrate.

    Normal processing keeps escrow deltas off the row until commit, so
    online rollback must not apply this record's before image (the
    transaction manager skips it, as it does EscrowDeltaRecord). Crash
    recovery, however, treats it physically: redo installs the after
    image, undo restores the before image — and under interleaved escrow
    holders those images are mutually stale, which is precisely the
    corruption the paper's logical logging avoids.
    """

    type = RecordType.COUNTER_IMAGE
    __slots__ = ()


def _unpack_action(buf, at, record, layouts):
    action, end = _decode_at(buf, at, layouts)
    record.action_bytes = bytes(buf[at:end])
    return action, end


class CompensationRecord(LogRecord):
    """A CLR: the redo-only record of having undone ``compensated_lsn``.

    ``undo_next_lsn`` points at the next record of the same transaction
    still awaiting undo, so rollback never repeats work after a crash.
    The CLR embeds the compensated record — ``action_bytes``, the bytes
    the log stored for it, whole — and ``action`` is that record decoded;
    *redoing the CLR applies that record's undo* — for escrow deltas this
    stays relative (-delta), for physical records it restores the before
    image.
    """

    type = RecordType.CLR
    __slots__ = ("compensated_lsn", "undo_next_lsn", "action", "action_bytes")
    changes_rows = True
    fields = (
        ("compensated_lsn", codec.VALUE),
        ("undo_next_lsn", codec.VALUE),
        # the compensated record, whole: its own header and body
        ("action", (
            lambda action, out, record: out(record.action_bytes),
            _unpack_action,
        )),
    )

    def __init__(self, txn_id, compensated_lsn, undo_next_lsn, action,
                 action_bytes=None):
        super().__init__(txn_id)
        self.compensated_lsn = compensated_lsn
        self.undo_next_lsn = undo_next_lsn
        self.action = action  # the compensated LogRecord
        #: its stored bytes (rollback passes the log's); a record built
        #: by hand is encoded here
        self.action_bytes = (
            action.encoded() if action_bytes is None else action_bytes
        )

    def _extra_repr(self):
        return f", compensates={self.compensated_lsn}"

    def redo(self, target):
        self.action.undo(target, self.lsn)


class PrepareRecord(LogRecord):
    """A participant's phase-1 vote in two-phase commit.

    Logged (and flushed) by a partition engine when the coordinator asks
    it to prepare the branch of global transaction ``gid``. Once this
    record is durable the branch is **in-doubt**: recovery redoes its
    effects (repeat history) but must not undo them, and the branch's
    locks stay held until the coordinator's decision arrives. A branch
    with no durable prepare record is presumed aborted.
    """

    type = RecordType.PREPARE
    __slots__ = ("gid",)
    fields = (("gid", codec.VALUE),)

    def __init__(self, txn_id, gid):
        super().__init__(txn_id)
        self.gid = gid

    def _extra_repr(self):
        return f", gid={self.gid!r}"


class DecisionRecord(LogRecord):
    """The coordinator's phase-2 outcome for global transaction ``gid``.

    Lives only in the coordinator's decision log (never in a partition
    WAL); ``txn_id`` is None because the record belongs to the global
    transaction, not any branch. The decision is binding once this
    record is *durable* — an unflushed decision lost to a coordinator
    crash leaves the gid undecided, and presumed abort applies.
    """

    type = RecordType.DECISION
    __slots__ = ("gid", "decision", "participants")
    fields = (
        ("gid", codec.VALUE),
        ("decision", codec.VALUE),
        ("participants", codec.KEY),
    )

    def __init__(self, gid, decision, participants):
        super().__init__(txn_id=None)
        self.gid = gid
        self.decision = decision  # "commit" | "abort"
        self.participants = tuple(participants)

    def _extra_repr(self):
        return f", gid={self.gid!r}, decision={self.decision}"


def _unpack_table(buf, at):
    pairs, at = codec.unpack_key(buf, at)
    if not all(isinstance(pair, tuple) and len(pair) == 2 for pair in pairs):
        raise WalError("a table entry is not a (key, value) pair")
    return dict(pairs), at


#: an int -> int table, packed as a key of ``(key, value)`` pairs
_TABLE = (
    lambda table, out, record: codec.pack_key(tuple(table.items()), out),
    lambda buf, at, record, layouts: _unpack_table(buf, at),
)


class CheckpointRecord(LogRecord):
    """The ARIES checkpoint: the active-transaction table plus the
    **dirty-page table** (``page_id -> recLSN``) as it stood at the
    checkpoint — no data. Analysis starts just after the checkpoint;
    redo starts at ``min(recLSN)`` and is gated per entry against the
    durable page images (``docs/STORAGE.md``).
    """

    type = RecordType.CHECKPOINT
    __slots__ = ("active_txns", "dirty_pages")
    fields = (("active_txns", _TABLE), ("dirty_pages", _TABLE))

    def __init__(self, active_txns, dirty_pages=None):
        super().__init__(txn_id=None)
        self.active_txns = dict(active_txns)  # txn_id -> last_lsn
        self.dirty_pages = dict(dirty_pages or {})  # page_id -> recLSN

    def _extra_repr(self):
        return f", active={sorted(self.active_txns)}"
