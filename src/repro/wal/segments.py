"""Segmented on-disk WAL: fixed-size segments with CRC trailers.

Real logs are a chain of fixed-size segment files that are sealed,
verified, and recycled independently. This module gives the simulated
engine that shape — the log's one on-disk form (formats pinned in
``docs/STORAGE.md``):

* ``wal.00001.seg``, ``wal.00002.seg``, … — each segment holds a JSON
  **header line** (``segment``, ``first_lsn``, and the engine's
  **layout table**, CRC-covered, that the records' layout ids name), a
  **body** of frames
  (:func:`repro.wal.codec.frame`: length, the record's CRC, then the
  record's bytes) — a slice of the log's own buffer, which holds
  exactly these frames — a newline, and a JSON **trailer line**
  (``segment``, ``records``, ``last_lsn``, ``crc``) whose CRC-32 covers
  the body — a torn segment tail or a bit flip fails the trailer check
  and the segment (plus everything after it) is dropped, never
  replayed. The head segment's layout table is the chain's: one that
  fails its CRC is a :class:`~repro.common.StorageError`, and a later
  segment whose table fails its CRC or differs is a break.
* A ``wal.floor`` **marker file** records the legitimate truncation
  floor — the ``first_lsn`` the chain's head segment must carry and how
  many segment files the chain holds. :func:`dump_segments` writes it
  and :func:`recycle_segments` updates it, so :func:`load_segments` can
  tell a *recycled* head (expected, clean) from a *lost* one (the
  ``wal.segment_lost`` fault site can eat segment 1, which no
  continuity check between surviving neighbours would ever notice).
* :func:`load_segments` verifies each trailer, that the frames tile each
  body, the head against the marker, **LSN continuity** frame by frame
  across the chain, and the marker's segment count (which catches a
  lost *tail* segment) — reading frame and record headers only: it
  decodes no record, and the bodies it keeps become the loaded log's
  buffer. Everything at or past a break — and
  every missing segment — is counted into
  ``LogManager.undecodable_tail`` so the salvage pass reports the loss
  instead of recovery silently replaying a history with a hole.
* :func:`recycle_segments` deletes sealed segments wholly below a
  caller-supplied LSN floor — after a checkpoint the engine's
  floor is ``min(checkpoint LSN, min dirty-page recLSN, oldest active
  transaction's first LSN)`` (``Restart.recycle_floor``).

>>> import tempfile
>>> from repro.wal.log import LogManager
>>> from repro.wal.records import CommitRecord
>>> log = LogManager()
>>> for txn in range(1, 7):
...     _ = log.append(CommitRecord(txn, txn))
>>> log.flush()
>>> directory = tempfile.mkdtemp()
>>> paths = dump_segments(log, directory, segment_bytes=64)
>>> len(paths) > 1
True
>>> reloaded = load_segments(directory)
>>> (reloaded.tail_lsn(), reloaded.undecodable_tail) == (log.tail_lsn(), 0)
True
>>> os.remove(paths[0])  # the head segment vanishes without a trace...
>>> load_segments(directory).undecodable_tail > 0  # ...but not silently
True
>>> paths = dump_segments(log, directory, segment_bytes=64)
>>> recycle_segments(directory, keep_from_lsn=log.tail_lsn() + 1) == paths
True
>>> load_segments(directory).undecodable_tail  # recycled != lost
0
"""

import json
import os
import re
import zlib

from repro.catalog import RowLayout
from repro.common import StorageError
from repro.faults import NULL_INJECTOR
from repro.wal import codec
from repro.wal.log import LogManager

_SEGMENT_NAME = re.compile(r"^wal\.(\d{5})\.seg$")

#: the truncation-floor marker file (see :func:`read_floor`)
FLOOR_NAME = "wal.floor"


def segment_path(directory, number):
    return os.path.join(directory, f"wal.{number:05d}.seg")


def floor_path(directory):
    return os.path.join(directory, FLOOR_NAME)


def _write_floor(directory, first_lsn, segments):
    with open(floor_path(directory), "w") as f:
        f.write(
            json.dumps({"first_lsn": first_lsn, "segments": segments}) + "\n"
        )


def _remove_floor(directory):
    """Remove the truncation marker. Returns ``None`` on success (an
    already-absent marker counts) or the ``OSError`` when the remove
    failed — the caller decides whether a stale marker matters."""
    try:
        os.remove(floor_path(directory))
    except OSError as exc:
        return exc
    return None


def read_floor(directory):
    """The persisted truncation floor, or ``None`` when no (readable)
    marker exists: ``{"first_lsn": ..., "segments": ...}`` — the LSN
    the chain's head segment must start at and the number of segment
    files the chain is supposed to hold. An unreadable marker is
    treated as missing, which makes :func:`load_segments` *more*
    suspicious of the chain, never less."""
    try:
        with open(floor_path(directory)) as f:
            marker = json.load(f)
        return {
            "first_lsn": int(marker["first_lsn"]),
            "segments": int(marker["segments"]),
        }
    except (OSError, ValueError, KeyError, TypeError):
        return None


def segment_files(directory):
    """``(number, path)`` for every segment in ``directory``, ordered."""
    found = []
    for name in os.listdir(directory):
        match = _SEGMENT_NAME.match(name)
        if match is not None:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


def _table_crc(table):
    return zlib.crc32(json.dumps(table).encode("ascii"))


def _layout_pairs(header):
    """The ``(RowLayout, live)`` pairs of a segment header's layout
    table, or ``None`` when it is missing or fails its CRC."""
    table = header.get("layouts")
    if _table_crc(table) != header.get("layouts_crc"):
        return None
    return [
        (RowLayout(layout_id, name, columns, counters), live)
        for layout_id, name, live, columns, counters in table
    ]


def _as_table(pairs):
    return {layout.id: layout for layout, _ in pairs}


def _definitions(table):
    return {i: layout.definition() for i, layout in table.items()}


def read_layouts(directory):
    """The ``(RowLayout, live)`` pairs of the layout table the chain in
    ``directory`` decodes against: its first segment's (none when there
    is no segment or its header does not parse, which breaks the chain
    there anyway). A table that fails its CRC is a
    :class:`StorageError`."""
    files = segment_files(directory)
    try:
        with open(files[0][1], "rb") as f:
            header = json.loads(f.readline())
    except (IndexError, OSError, ValueError):
        return []
    pairs = _layout_pairs(header) if isinstance(header, dict) else []
    if pairs is None:
        raise StorageError(
            f"segment {header.get('segment')}: its layout table fails its CRC"
        )
    return pairs


def dump_segments(log, directory, segment_bytes=32768, faults=None,
                  layouts=()):
    """Write the flushed prefix of ``log`` as a chain of segments, each
    headed by ``layouts``, ``(RowLayout, live)`` pairs; each body is a
    slice of the log's buffer.

    Each segment is sealed once its body exceeds ``segment_bytes`` (a
    segment always holds at least one record). The ``wal.segment_lost``
    fault site is evaluated once per segment — a fired site drops the
    whole file, leaving an LSN gap for :func:`load_segments` to find.
    Returns the written paths.
    """
    faults = faults if faults is not None else NULL_INJECTOR
    os.makedirs(directory, exist_ok=True)
    for _, stale in segment_files(directory):
        os.remove(stale)
    _remove_floor(directory)
    segments = []  # (number, first_lsn, last_lsn)
    first_lsn, start = log.first_lsn, 0
    for lsn in range(log.first_lsn, log.flushed_lsn + 1):
        end = log.span(lsn)[1]
        if end - start >= segment_bytes or lsn == log.flushed_lsn:
            segments.append((len(segments) + 1, first_lsn, lsn))
            first_lsn, start = lsn + 1, end
    if segments:
        # The marker describes the *intended* chain, written before the
        # per-segment fault site gets a say — a segment the device eats
        # is then a detectable hole, not a silently shorter history.
        _write_floor(directory, segments[0][1], len(segments))
    table = [
        [layout.id, layout.name, live, list(layout.columns),
         list(layout.counters)]
        for layout, live in layouts
    ]
    paths = []
    for number, first, last in segments:
        if faults.active and faults.fires(
            "wal.segment_lost", detail=str(number)
        ) is not None:
            continue  # the device ate this segment wholesale
        path = segment_path(directory, number)
        body = log.body(first, last)
        trailer = {
            "segment": number,
            "records": last - first + 1,
            "last_lsn": last,
            "crc": zlib.crc32(body),
        }
        header = {
            "segment": number, "first_lsn": first, "layouts": table,
            "layouts_crc": _table_crc(table),
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode("ascii") + b"\n")
            f.write(body + b"\n")
            f.write(json.dumps(trailer).encode("ascii") + b"\n")
        paths.append(path)
    return paths


def _read_segment(path, layouts=None):
    """Parse one segment file; returns ``(header, body, offsets, ok)``:
    the body's frames and where each starts.

    ``ok`` is False when the trailer is missing or its CRC does not
    match the body, the frames do not tile the body, their LSNs do not
    run on from ``first_lsn`` one by one, or the record count / last_lsn
    disagree with them — all read from frame and record headers; no
    record is decoded, and no frame's own CRC is judged here (the
    salvage scan does that). ``ok`` is False too when the segment's own
    layout table fails its CRC or, given the chain's ``layouts`` (``{id:
    RowLayout}``), names other definitions.
    """
    with open(path, "rb") as f:
        raw = f.read()
    # header line, body, newline, trailer line: the trailer is the last
    # line, and the newline before it is the one written after the body
    head_end = raw.find(b"\n")
    body_end = raw.rfind(b"\n", 0, len(raw) - 1)
    if head_end < 0 or body_end <= head_end:
        return None, b"", [], False
    try:
        header = json.loads(raw[:head_end])
        trailer = json.loads(raw[body_end + 1:])
    except ValueError:
        return None, b"", [], False
    if not (isinstance(header, dict) and isinstance(trailer, dict)):
        return None, b"", [], False
    if "first_lsn" not in header or "crc" not in trailer:
        return header, b"", [], False
    pairs = _layout_pairs(header)
    if pairs is None or (
        layouts is not None
        and _definitions(_as_table(pairs)) != _definitions(layouts)
    ):
        return header, b"", [], False
    body = raw[head_end + 1:body_end]
    if zlib.crc32(body) != trailer["crc"]:
        return header, b"", [], False
    try:
        offsets = codec.frame_offsets(body)
        heads = [codec.FRAMED_RECORD_HEADER.unpack_from(body, at) for at in offsets]
    except codec.DECODE_ERRORS:
        return header, b"", [], False
    expected = header["first_lsn"]
    for _, _, kind, lsn, _, _ in heads:
        if not kind & codec.HAS_LSN or lsn != expected:
            return header, b"", [], False
        expected += 1
    if trailer.get("records") != len(offsets):
        return header, b"", [], False
    if offsets and trailer.get("last_lsn") != expected - 1:
        return header, b"", [], False
    return header, body, offsets, True


def load_segments(directory, layouts=None):
    """Rebuild a :class:`LogManager` from a segment chain: its buffer is
    the chain's bodies, back to back, and nothing is decoded.

    The log decodes against ``layouts`` (``{id: RowLayout}``), by
    default the chain's table as written (:func:`read_layouts`); every
    segment carries the table its dump wrote.

    Loading stops at the first broken link — a failed trailer CRC, frames
    that do not tile the body or LSNs that skip, or an LSN gap against
    the previous segment (a lost or prematurely recycled segment). The
    chain's *head* is checked against the ``wal.floor`` marker: a head
    starting past the recorded floor means the earliest segment was
    lost, not recycled (with no marker at all, the head must start at
    LSN 1). Every record at or past a break is counted into
    ``undecodable_tail``, and so is every segment file the marker
    promises but the directory lacks (a lost tail leaves the surviving
    chain perfectly continuous — only the count betrays it), so the
    salvage pass reports the loss.
    """
    files = segment_files(directory)
    floor = read_floor(directory)
    dropped = 0
    broken = False
    expected_lsn = floor["first_lsn"] if floor is not None else 1
    if layouts is None:
        layouts = _as_table(read_layouts(directory))
    bodies, offsets, first_lsn, size = [], [], None, 0
    for number, path in files:
        header, body, starts, ok = _read_segment(path, layouts)
        if broken or not ok or header["first_lsn"] != expected_lsn:
            broken = True
            dropped += max(len(starts), 1)
            continue
        if starts and first_lsn is None:
            first_lsn = expected_lsn
        bodies.append(body)
        offsets.extend(size + at for at in starts)
        size += len(body)
        expected_lsn += len(starts)
    if floor is not None and len(files) < floor["segments"]:
        # each missing segment held at least one record
        dropped += floor["segments"] - len(files)
    manager = LogManager.from_frames(
        b"".join(bodies), offsets, first_lsn or 1, layouts=layouts
    )
    manager.undecodable_tail = dropped
    return manager


def recycle_segments(directory, keep_from_lsn):
    """Delete sealed segments that lie wholly below ``keep_from_lsn``.

    A segment is removed only when its trailer verifies and its
    ``last_lsn`` is below the floor — a damaged segment is never
    silently discarded. The ``wal.floor`` marker is rewritten to the
    surviving chain's head, so :func:`load_segments` knows this
    truncation was legitimate and can still tell a *lost* head from a
    recycled one. Returns the removed paths.
    """
    removed, header = [], None
    for _, path in segment_files(directory):
        header, _, starts, ok = _read_segment(path)
        if not ok or not starts:
            break
        if header["first_lsn"] + len(starts) - 1 < keep_from_lsn:
            os.remove(path)
            removed.append(path)
        else:
            break
    if removed:
        remaining = segment_files(directory)
        if remaining:
            # the new head is where the loop stopped; an unreadable one
            # leaves the old marker, keeping load_segments wary
            if isinstance(header, dict) and "first_lsn" in header:
                _write_floor(directory, header["first_lsn"], len(remaining))
        else:
            # everything below the floor was recycled and nothing is
            # left — an empty directory is a legitimate empty chain
            _write_floor(directory, keep_from_lsn, 0)
    return removed
