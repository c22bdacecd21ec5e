"""The one packed codec: log records, page entries, segment frames, and
the typed values all three are built from (field tables:
``docs/STORAGE.md`` §1 and §3). A record's size, its CRC stamp, its
segment frame and its page entry are all readings of one buffer.

* **values** — a tag byte (``repro.obs.schema.VALUE_TAGS``), then a
  payload whose width the tag fixes. Dispatch is on the *exact* type and
  every tag reads back as the type that wrote it (``Decimal``, ``date``,
  ``-0.0``, nested tuples); a value with no tag — a ``list``, a ``set``,
  a user object, an ``int`` subclass — is refused
  (:class:`UnsupportedValueError`), not written as something else.
* **lengths** — one byte, or ``0xFF`` then a ``u32``.
* **keys** — a length and that many values; **rows** — a presence
  byte, the arity, the values in ``layout.columns`` order (a
  :class:`~repro.catalog.RowLayout`, named by its u16 id: no name is
  packed); **escrow deltas** — the arity, the ``layout.counters``.
* **record header** :data:`RECORD_HEADER`, then the record class's
  declared fields (:mod:`repro.wal.records`), each one of the kinds at
  the bottom of this module; **page entry** :data:`ENTRY_HEADER`, key,
  row; **segment frame** :data:`FRAME_HEADER`, record bytes.

Packers append ``bytes`` to a sink (``list.append``); unpackers take
``(buf, at)`` and return ``(value, next_at)``, letting a malformed
buffer's errors (:data:`DECODE_ERRORS`) reach the two decoding entry
points, :meth:`LogRecord.decode <repro.wal.records.LogRecord.decode>`
and :func:`unpack_entry` (against a layout table), which raise
:class:`WalError` / :class:`StorageError`.

>>> parts = []; pack_value((1, "é", None), parts.append)
>>> unpack_value(b"".join(parts), 0)[0]
(1, 'é', None)
"""

import datetime
import decimal
import functools
import struct

from repro.common import StorageError, UnsupportedValueError, WalError
from repro.common.rows import adopt_row
from repro.obs.schema import VALUE_TAGS  # tag names; tag byte = position

#: what a malformed buffer makes the unpackers raise: their own
#: structural checks (WalError) and the builtins of a short or garbled read
DECODE_ERRORS = (
    WalError, struct.error, IndexError, KeyError, ValueError, OverflowError,
    ArithmeticError,
)

_BYTE = [bytes((n,)) for n in range(256)]
_TAG = {name: _BYTE[tag] for tag, name in enumerate(VALUE_TAGS)}
_U32 = struct.Struct("<I")
_I16 = struct.Struct("<h")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_DATETIME = struct.Struct("<HBBBBBI")  # year … second, microsecond
_MICROSECOND = datetime.timedelta(microseconds=1)
_INT8_TAG = VALUE_TAGS.index("int8")
_INT8 = [_TAG["int8"] + _BYTE[v & 0xFF] for v in range(-128, 128)]
# pack(value) for the fixed-width values, tag byte included
_INT16, _INT32, _INT64, _FLOAT, _DATE = (
    functools.partial(struct.Struct("<B" + layout).pack, VALUE_TAGS.index(tag))
    for tag, layout in (
        ("int16", "h"), ("int32", "i"), ("int64", "q"), ("float", "d"),
        ("date", "I"),
    )
)


def _refuse(value, out=None):
    raise UnsupportedValueError(
        f"no storage layout for a {type(value).__name__} value "
        f"({value!r}); rows and keys hold None, bool, int, float, str, "
        f"bytes, tuple, Decimal, date and datetime"
    )


def _pack_len(n):
    return _BYTE[n] if n < 255 else b"\xff" + _U32.pack(n)


def _unpack_len(buf, at):
    n = buf[at]
    if n < 255:
        return n, at + 1
    return _U32.unpack_from(buf, at + 1)[0], at + 5


def _sized(data):
    return _pack_len(len(data)) + data


def _unpack_sized(buf, at, convert):
    n, at = _unpack_len(buf, at)
    return convert(buf[at:at + n]), at + n


_UTF8 = functools.partial(str, encoding="utf-8")


def _unpack_str(buf, at):
    return _unpack_sized(buf, at, _UTF8)


def _decimal(data):
    """Only the text ``str(value)`` writes: ``Decimal`` also reads
    spaces, underscores and other spellings of the same value, so a
    damaged byte could decode, re-encode to the original bytes and pass
    its checksum."""
    text = str(data, "ascii")
    value = decimal.Decimal(text)
    if str(value) != text:
        raise WalError(f"non-canonical decimal text {text!r}")
    return value


def _pack_int(value, out):
    if -0x80 <= value < 0x80:
        out(_INT8[value + 128])
    elif -0x8000 <= value < 0x8000:
        out(_INT16(value))
    elif -0x80000000 <= value < 0x80000000:
        out(_INT32(value))
    elif -(1 << 63) <= value < (1 << 63):
        out(_INT64(value))
    else:
        width = value.bit_length() // 8 + 1
        out(_TAG["bigint"] + _sized(value.to_bytes(width, "little", signed=True)))


def _pack_str(value, out):
    try:
        data = value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        _refuse(value)
    out(_TAG["str"] + _sized(data))


def _pack_tuple(value, out):
    out(_TAG["tuple"])
    pack_key(value, out)


def _pack_datetime(value, out):
    fields = _DATETIME.pack(
        value.year, value.month, value.day, value.hour, value.minute,
        value.second, value.microsecond,
    )
    offset = value.utcoffset()
    if offset is None:
        out(_TAG["datetime"] + fields)
    else:
        # an aware datetime reads back at the same instant and offset,
        # its tzinfo a fixed-offset ``timezone``
        out(_TAG["datetime_tz"] + fields + _I64.pack(offset // _MICROSECOND))


def _unpack_datetime_tz(buf, at):
    end = at + _DATETIME.size
    zone = datetime.timezone(_I64.unpack_from(buf, end)[0] * _MICROSECOND)
    return datetime.datetime(*_DATETIME.unpack_from(buf, at), tzinfo=zone), end + 8


_PACKERS = {
    type(None): lambda value, out: out(_TAG["none"]),
    bool: lambda value, out: out(_TAG["true"] if value else _TAG["false"]),
    int: _pack_int,
    float: lambda value, out: out(_FLOAT(value)),
    str: _pack_str,
    bytes: lambda value, out: out(_TAG["bytes"] + _sized(value)),
    tuple: _pack_tuple,
    decimal.Decimal: lambda value, out: out(
        _TAG["decimal"] + _sized(str(value).encode("ascii"))
    ),
    datetime.date: lambda value, out: out(_DATE(value.toordinal())),
    datetime.datetime: _pack_datetime,
}

#: tag byte -> unpacker, in VALUE_TAGS order; a tag past the end is an
#: IndexError
_UNPACKERS = (
    lambda buf, at: (None, at),
    lambda buf, at: (False, at),
    lambda buf, at: (True, at),
    lambda buf, at: ((buf[at] ^ 0x80) - 0x80, at + 1),
    lambda buf, at: (_I16.unpack_from(buf, at)[0], at + 2),
    lambda buf, at: (_I32.unpack_from(buf, at)[0], at + 4),
    lambda buf, at: (_I64.unpack_from(buf, at)[0], at + 8),
    lambda buf, at: _unpack_sized(
        buf, at, lambda data: int.from_bytes(data, "little", signed=True)
    ),
    lambda buf, at: (_F64.unpack_from(buf, at)[0], at + 8),
    _unpack_str,
    lambda buf, at: _unpack_sized(buf, at, bytes),
    lambda buf, at: unpack_key(buf, at),
    lambda buf, at: _unpack_sized(buf, at, _decimal),
    lambda buf, at: (
        datetime.date.fromordinal(_U32.unpack_from(buf, at)[0]), at + 4
    ),
    lambda buf, at: (
        datetime.datetime(*_DATETIME.unpack_from(buf, at)), at + _DATETIME.size
    ),
    _unpack_datetime_tz,
)


def pack_value(value, out):
    """Pack one tagged value (exact-type dispatch)."""
    _PACKERS.get(type(value), _refuse)(value, out)


def unpack_value(buf, at):
    return _UNPACKERS[buf[at]](buf, at + 1)


def pack_key(key, out):
    """A length and that many values (also a nested tuple's payload)."""
    out(_pack_len(len(key)))
    for value in key:
        _PACKERS.get(type(value), _refuse)(value, out)


def unpack_key(buf, at, record=None, layouts=None):
    """A key: the inverse of :func:`pack_key` (and a record field's
    unpacker, which is given the record and layout table too)."""
    n, at = _unpack_len(buf, at)
    values = []
    for _ in range(n):
        value, at = _UNPACKERS[buf[at]](buf, at + 1)
        values.append(value)
    return tuple(values), at


def _pack_values(mapping, names, out):
    """The arity, then ``mapping``'s values at ``names`` — which must be
    all of its keys — in that order."""
    if len(mapping) != len(names):
        raise WalError(f"{len(mapping)} values for the layout's {names!r}")
    out(_pack_len(len(names)))
    try:
        for name in names:
            value = mapping[name]
            _PACKERS.get(type(value), _refuse)(value, out)
    except KeyError as missing:
        raise WalError(f"no {missing} among {list(mapping)!r}") from None


def _unpack_values(buf, at, names):
    # The hot read loop (every record's row and deltas, every entry at
    # recovery): one-byte ints are read in line.
    n, at = _unpack_len(buf, at)
    if n != len(names):
        raise WalError(f"arity {n} where the layout has {len(names)}")
    values = {}
    for name in names:
        tag = buf[at]
        if tag == _INT8_TAG:
            values[name] = (buf[at + 1] ^ 0x80) - 0x80
            at += 2
        else:
            values[name], at = _UNPACKERS[tag](buf, at + 1)
    return values, at


def pack_row(row, out, layout):
    """A presence byte (a before image may be absent), then the row's
    values in ``layout.columns`` order."""
    if row is None:
        out(_BYTE[0])
    else:
        out(_BYTE[1])
        _pack_values(row, layout.columns, out)


def _unpack_optional_values(buf, at, layout):
    if buf[at] == 0:
        return None, at + 1
    if buf[at] != 1:
        raise WalError("bad row presence byte")
    return _unpack_values(buf, at + 1, layout.columns)


def check_row(row):
    """Refuse (:class:`UnsupportedValueError`) a row some value of which
    has no layout — by packing its values as a record does, the one exact
    test — so DML can fail before it has changed anything."""
    for value in row.values():
        _PACKERS.get(type(value), _refuse)(value, lambda data: None)


#: kind (type code | presence flags), lsn, txn_id, prev_lsn
RECORD_HEADER = struct.Struct("<BIII")
CODE_MASK = 0x1F
# presence flags: lsn, txn_id, prev_lsn is not None
HAS_LSN, HAS_TXN, HAS_PREV = 0x20, 0x40, 0x80
_ALL_PRESENT = HAS_LSN | HAS_TXN | HAS_PREV


def pack_record_header(code, lsn, txn_id, prev_lsn):
    """The fixed 13-byte header. An absent (``None``) field is a zero
    with its presence flag clear, so LSN / transaction 0 stay
    representable."""
    if lsn is not None:
        code |= HAS_LSN
    if txn_id is not None:
        code |= HAS_TXN
    if prev_lsn is not None:
        code |= HAS_PREV
    try:
        return RECORD_HEADER.pack(code, lsn or 0, txn_id or 0, prev_lsn or 0)
    except struct.error:
        raise WalError(
            f"lsn={lsn}, txn_id={txn_id}, prev_lsn={prev_lsn} do not fit "
            f"the record header's u32 fields"
        ) from None


def unpack_record_header(buf, at):
    """``(code, lsn, txn_id, prev_lsn, next_at)``."""
    kind, lsn, txn_id, prev_lsn = RECORD_HEADER.unpack_from(buf, at)
    if kind & _ALL_PRESENT != _ALL_PRESENT:
        if (
            (not kind & HAS_LSN and lsn) or (not kind & HAS_TXN and txn_id)
            or (not kind & HAS_PREV and prev_lsn)
        ):
            raise WalError("header field set without its presence flag")
        lsn = lsn if kind & HAS_LSN else None
        txn_id = txn_id if kind & HAS_TXN else None
        prev_lsn = prev_lsn if kind & HAS_PREV else None
    return kind & CODE_MASK, lsn, txn_id, prev_lsn, at + RECORD_HEADER.size


#: flags (ghost; every other bit reserved), lsn, layout id — then key, row
ENTRY_HEADER = struct.Struct("<BIH")
_GHOST = 0x01


def pack_entry(layout, key, row, is_ghost, lsn):
    """One key's page entry as of ``lsn``."""
    flags = _GHOST if is_ghost else 0
    parts = [ENTRY_HEADER.pack(flags, lsn, layout.id)]
    pack_key(key, parts.append)
    pack_row(row, parts.append, layout)
    return b"".join(parts)


def entry_lsn(buf):
    """The LSN a page entry was packed as of (its header alone)."""
    return ENTRY_HEADER.unpack_from(buf, 0)[1]


def unpack_entry(buf, layouts):
    """``(layout, key, row, is_ghost, lsn)`` — the row a plain dict or
    ``None``; the layout from ``layouts`` (``{id: RowLayout}``). A
    malformed entry, an unknown layout id, a wrong arity or a reserved
    flag bit set is a :class:`StorageError`."""
    try:
        flags, lsn, layout_id = ENTRY_HEADER.unpack_from(buf, 0)
        layout = layouts[layout_id]
        key, at = unpack_key(buf, ENTRY_HEADER.size)
        row, at = _unpack_optional_values(buf, at, layout)
    except DECODE_ERRORS as exc:
        raise StorageError(f"undecodable page entry: {exc!r}") from None
    if at != len(buf) or flags & ~_GHOST:
        raise StorageError("undecodable page entry: bad length or flags")
    return layout, key, row, bool(flags & _GHOST), lsn


#: record length, record CRC-32 — then the record's bytes
FRAME_HEADER = struct.Struct("<II")
#: a frame's header and its record's, read as one: what the readers of
#: headers alone (the log's scans, the segment loader) unpack
FRAMED_RECORD_HEADER = struct.Struct("<II" + RECORD_HEADER.format[1:])


def frame(payload, crc):
    return FRAME_HEADER.pack(len(payload), crc) + payload


def frame_offsets(body):
    """Where each frame of a segment body starts; the frames must tile
    the body exactly (:class:`WalError` otherwise). Reads frame headers
    only."""
    offsets, at, end = [], 0, len(body)
    while at < end:
        offsets.append(at)
        try:
            length = FRAME_HEADER.unpack_from(body, at)[0]
        except struct.error:
            raise WalError("segment body ends inside a frame header") from None
        at += FRAME_HEADER.size + length
        if at > end:
            raise WalError("segment body ends inside a frame")
    return offsets


# Record-body field kinds: ``(pack(value, out, record), unpack(buf, at,
# record, layouts))``; rows and deltas pack against ``record.layout``.
# The unpackers are the decoder's inner loop: each reads its field
# directly, with no adapter call between.
_LAYOUT_ID = struct.Struct("<H")


def _unpack_row_field(buf, at, record, layouts):
    values, at = _unpack_optional_values(buf, at, record.layout)
    return (None if values is None else adopt_row(values)), at


VALUE = (
    lambda value, out, record: pack_value(value, out),
    lambda buf, at, record, layouts: _UNPACKERS[buf[at]](buf, at + 1),
)
KEY = (lambda key, out, record: pack_key(key, out), unpack_key)
LAYOUT = (
    lambda layout, out, record: out(_LAYOUT_ID.pack(layout.id)),
    lambda buf, at, record, layouts: (
        layouts[_LAYOUT_ID.unpack_from(buf, at)[0]], at + 2
    ),
)
ROW = (
    lambda row, out, record: pack_row(row, out, record.layout),
    _unpack_row_field,
)
DELTAS = (
    lambda deltas, out, record: _pack_values(
        deltas, record.layout.counters, out
    ),
    lambda buf, at, record, layouts: _unpack_values(
        buf, at, record.layout.counters
    ),
)
