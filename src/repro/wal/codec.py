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
* **keys** — a length and that many values; **rows** — a presence byte,
  a column count, ``(name, value)`` pairs in the row's own order.
* **record header** :data:`RECORD_HEADER`, then the record class's
  declared fields (:mod:`repro.wal.records`), each one of the kinds at
  the bottom of this module; **page entry** :data:`ENTRY_HEADER`, index
  name, key, row; **segment frame** :data:`FRAME_HEADER`, record bytes.

Packers append ``bytes`` to a sink (``list.append``); unpackers take
``(buf, at)`` and return ``(value, next_at)``, letting a malformed
buffer's errors (:data:`DECODE_ERRORS`) reach the two decoding entry
points, :meth:`LogRecord.decode <repro.wal.records.LogRecord.decode>`
and :func:`unpack_entry`, which raise :class:`WalError` /
:class:`StorageError`.

>>> parts = []; pack_value((1, "é", None), parts.append)
>>> unpack_value(b"".join(parts), 0)[0]
(1, 'é', None)
"""

import datetime
import decimal
import functools
import struct

from repro.common import Row, StorageError, UnsupportedValueError, WalError
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


@functools.lru_cache(maxsize=4096)
def _name(name):
    """An index or column name: length, UTF-8. The same few names are
    packed millions of times, hence the memo."""
    if type(name) is not str:
        _refuse(name)
    return _sized(name.encode("utf-8"))


_UTF8 = functools.partial(str, encoding="utf-8")


def _unpack_str(buf, at):
    return _unpack_sized(buf, at, _UTF8)


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
    lambda buf, at: _unpack_sized(
        buf, at, lambda data: decimal.Decimal(str(data, "ascii"))
    ),
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


def unpack_key(buf, at):
    n, at = _unpack_len(buf, at)
    values = []
    for _ in range(n):
        value, at = _UNPACKERS[buf[at]](buf, at + 1)
        values.append(value)
    return tuple(values), at


def pack_columns(columns, out):
    """A column count, then ``(name, value)`` pairs in mapping order."""
    out(_pack_len(len(columns)))
    for name, value in columns.items():
        out(_name(name))
        _PACKERS.get(type(value), _refuse)(value, out)


def unpack_columns(buf, at):
    # The hot read loop (every record's row and deltas, every entry at
    # recovery): short names and one-byte ints are read in line.
    n, at = _unpack_len(buf, at)
    columns = {}
    for _ in range(n):
        end = at + 1 + buf[at]
        if buf[at] == 255:
            name, end = _unpack_str(buf, at)
        else:
            name = str(buf[at + 1:end], "utf-8")
        tag = buf[end]
        if tag == _INT8_TAG:
            columns[name] = (buf[end + 1] ^ 0x80) - 0x80
            at = end + 2
        else:
            columns[name], at = _UNPACKERS[tag](buf, end + 1)
    if len(columns) != n:
        raise WalError("duplicate column name")
    return columns, at


def pack_row(row, out):
    """A presence byte (a before image may be absent), then the
    columns."""
    if row is None:
        out(_BYTE[0])
    else:
        out(_BYTE[1])
        pack_columns(row, out)


def _unpack_optional_columns(buf, at):
    if buf[at] == 0:
        return None, at + 1
    if buf[at] != 1:
        raise WalError("bad row presence byte")
    return unpack_columns(buf, at + 1)


def unpack_row(buf, at):
    columns, at = _unpack_optional_columns(buf, at)
    return (None if columns is None else Row(columns)), at


def check_row(row):
    """Refuse (:class:`UnsupportedValueError`) a row some value of which
    has no layout — by packing it, the one exact test — so DML can fail
    before it has changed anything."""
    pack_columns(row, lambda data: None)


#: kind (type code | presence flags), lsn, txn_id, prev_lsn
RECORD_HEADER = struct.Struct("<BIII")
_CODE_MASK = 0x1F
# presence flags: lsn, txn_id, prev_lsn is not None
_HAS_LSN, _HAS_TXN, _HAS_PREV = _PRESENT = (0x20, 0x40, 0x80)


def pack_record_header(code, lsn, txn_id, prev_lsn):
    """The fixed 13-byte header. An absent (``None``) field is a zero
    with its presence flag clear, so LSN / transaction 0 stay
    representable."""
    if lsn is not None:
        code |= _HAS_LSN
    if txn_id is not None:
        code |= _HAS_TXN
    if prev_lsn is not None:
        code |= _HAS_PREV
    try:
        return RECORD_HEADER.pack(code, lsn or 0, txn_id or 0, prev_lsn or 0)
    except struct.error:
        raise WalError(
            f"lsn={lsn}, txn_id={txn_id}, prev_lsn={prev_lsn} do not fit "
            f"the record header's u32 fields"
        ) from None


def unpack_record_header(buf, at):
    """``(code, lsn, txn_id, prev_lsn, next_at)``."""
    kind, *fields = RECORD_HEADER.unpack_from(buf, at)
    for i, flag in enumerate(_PRESENT):
        if not kind & flag:
            if fields[i]:
                raise WalError("header field set without its presence flag")
            fields[i] = None
    return (kind & _CODE_MASK, *fields, at + RECORD_HEADER.size)


#: flags (ghost; every other bit reserved), lsn — then index name, key, row
ENTRY_HEADER = struct.Struct("<BI")
_GHOST = 0x01


def pack_entry(index_name, key, row, is_ghost, lsn):
    """One key's page entry as of ``lsn``."""
    flags = _GHOST if is_ghost else 0
    parts = [ENTRY_HEADER.pack(flags, lsn), _name(index_name)]
    pack_key(key, parts.append)
    pack_row(row, parts.append)
    return b"".join(parts)


def entry_lsn(buf):
    """The LSN a page entry was packed as of (its header alone)."""
    return ENTRY_HEADER.unpack_from(buf, 0)[1]


def unpack_entry(buf):
    """``(index_name, key, row, is_ghost, lsn)`` — the row a plain dict
    or ``None``. A malformed entry, or one with a reserved flag bit set,
    is a :class:`StorageError`."""
    try:
        flags, lsn = ENTRY_HEADER.unpack_from(buf, 0)
        index_name, at = _unpack_str(buf, ENTRY_HEADER.size)
        key, at = unpack_key(buf, at)
        row, at = _unpack_optional_columns(buf, at)
    except DECODE_ERRORS as exc:
        raise StorageError(f"undecodable page entry: {exc!r}") from None
    if at != len(buf) or flags & ~_GHOST:
        raise StorageError("undecodable page entry: bad length or flags")
    return index_name, key, row, bool(flags & _GHOST), lsn


#: record length, record CRC-32 — then the record's bytes
FRAME_HEADER = struct.Struct("<II")


def frame(payload, crc):
    return FRAME_HEADER.pack(len(payload), crc) + payload


def iter_frames(body):
    """Yield ``(payload, crc)`` for each frame of a segment body, which
    the frames must tile exactly (:class:`WalError` otherwise)."""
    at, end = 0, len(body)
    while at < end:
        try:
            length, crc = FRAME_HEADER.unpack_from(body, at)
        except struct.error:
            raise WalError("segment body ends inside a frame header") from None
        at += FRAME_HEADER.size
        if at + length > end:
            raise WalError("segment body ends inside a frame")
        yield body[at:at + length], crc
        at += length


# record-body field kinds: (pack(value, out), unpack(buf, at))
VALUE = (pack_value, unpack_value)
NAME = (lambda name, out: out(_name(name)), _unpack_str)
KEY = (pack_key, unpack_key)
ROW = (pack_row, unpack_row)
COLUMNS = (pack_columns, unpack_columns)
