"""The online integrity checker.

:func:`check_database` sweeps three layers of invariants and returns a
structured :class:`IntegrityReport`:

1. **structure** — every index's B-tree ordering/fanout invariants and
   ghost-registry consistency (``Index.check_invariants``);
2. **view** — every indexed view (main index *and* its auxiliary
   ``#right`` / ``#leftfk`` indexes) matches a fresh recomputation
   from the base tables, with the usual zero-count-group allowance for
   aggregate views. A secondary index is a view and is checked here:
   a missing, orphan or wrong entry is view damage, and a unique index
   whose base rows hold a duplicate value — its recompute refuses them —
   is a finding, not a crash;
3. **storage** — every durable page image decodes with a valid CRC, and
   every *clean* leaf's image holds exactly that leaf's entries (keys,
   rows, ghost flags, LSNs): write-back fidelity. A dirty leaf's image
   is stale by definition and is not compared.

Like ``Database.check_view_consistency``, the sweep is only meaningful
at quiescence — in-flight transactions legitimately leave views ahead of
or behind their bases mid-statement. The checker never repairs anything;
pair it with ``Database.check_integrity(quarantine=True)`` and
``Database.rebuild_view`` for the repair path (see
:mod:`repro.integrity.quarantine`).
"""

from repro.common import CatalogError, StorageError
from repro.views.definition import expected_index_contents
from repro.wal.codec import unpack_entry


class Damage:
    """One integrity finding, anchored to an index (and maybe a key)."""

    __slots__ = ("kind", "index", "key", "detail", "view")

    def __init__(self, kind, index, key=None, detail="", view=None):
        self.kind = kind  # "structure" | "view" | "storage"
        self.index = index
        self.key = key
        self.detail = detail
        self.view = view  # owning view name, when one is damaged

    def __repr__(self):
        where = f"{self.index}{self.key!r}" if self.key is not None else self.index
        return f"Damage({self.kind} @ {where}: {self.detail})"

    def as_dict(self):
        return {
            "kind": self.kind,
            "index": self.index,
            "key": list(self.key) if self.key is not None else None,
            "detail": self.detail,
            "view": self.view,
        }


class IntegrityReport:
    """What :func:`check_database` found."""

    def __init__(self):
        self.indexes_checked = 0
        self.views_checked = 0
        self.damage = []  # list of Damage

    @property
    def clean(self):
        return not self.damage

    def damaged_views(self):
        """Names of views with at least one finding (quarantine set)."""
        return sorted({d.view for d in self.damage if d.view is not None})

    def reason_for(self, view_name):
        """The first finding against ``view_name``, as a reason string."""
        for damage in self.damage:
            if damage.view == view_name:
                return repr(damage)
        return "damaged"

    def as_dict(self):
        return {
            "indexes_checked": self.indexes_checked,
            "views_checked": self.views_checked,
            "clean": self.clean,
            "damage": [d.as_dict() for d in self.damage],
        }

    def __repr__(self):
        state = "clean" if self.clean else f"{len(self.damage)} findings"
        return (
            f"IntegrityReport({state}, indexes={self.indexes_checked}, "
            f"views={self.views_checked})"
        )


def view_discrepancies(db, view):
    """Diff every index ``view`` owns against a recomputation from the
    live base rows: yields ``(index_name, key, expected, actual)`` where
    they differ. Pending escrow deltas count as applied (an online build
    verifies itself before its commit folds them in), and zero-count
    groups — logically deleted, awaiting the ghost cleaner — as absent.
    The one oracle behind ``check_view_consistency``, the integrity
    sweep and the online build's verification."""
    live = expected_index_contents(view, lambda table: db.index(table).rows())
    for index_name, expected in live.items():
        counters = db.counter_columns(index_name)
        actual = {}
        for key, record in db.index(index_name).scan():
            row = record.current_row
            for column in counters:
                account = db.escrow.existing((index_name, key, column))
                if account is not None and account.has_pending():
                    row = row.replace(**{column: account.read_inclusive()})
            if not counters or row[view.count_column] != 0:
                actual[key] = row
        for key in sorted(set(expected) | set(actual), key=repr):
            want, got = expected.get(key), actual.get(key)
            if want != got:
                yield index_name, key, want, got


def view_problems(db, view):
    """:func:`view_discrepancies`, one line of text each."""
    return [
        f"{index_name}{key!r}: expected {want!r}, got {got!r}"
        for index_name, key, want, got in view_discrepancies(db, view)
    ]


def check_database(db):
    """Run the full three-layer sweep; returns an :class:`IntegrityReport`."""
    report = IntegrityReport()
    _check_structure(db, report)
    _check_views(db, report)
    _check_storage(db, report)
    return report


def _check_structure(db, report):
    for name in db.index_names():
        report.indexes_checked += 1
        try:
            db.index(name).check_invariants()
        except StorageError as err:
            view = db.view_of_index(name)
            report.damage.append(
                Damage(
                    "structure", name, detail=str(err),
                    view=view.name if view is not None else None,
                )
            )


def _check_views(db, report):
    for view in db.catalog.views():
        if db.online_builds.is_building(view.name):
            # Mid build: the maintained contents lag the bases by design
            # until the build commits; the build verifies itself.
            continue
        report.views_checked += 1
        try:
            found = list(view_discrepancies(db, view))
        except CatalogError as err:  # a unique index over duplicates
            report.damage.append(
                Damage("view", view.name, detail=str(err), view=view.name)
            )
            continue
        for index_name, key, want, got in found:
            report.damage.append(
                Damage(
                    "view", index_name, key=key,
                    detail=f"expected {want!r}, got {got!r}",
                    view=view.name,
                )
            )


def _check_storage(db, report):
    """Layer 3: durable page images decode, and every clean leaf's image
    decodes to exactly that leaf's entries. Only meaningful at
    quiescence, like the view sweep: an image includes the escrow deltas
    pending when it was written. A clean leaf that holds entries always
    has an image (a leaf is written when the store is attached, and any
    change dirties it), so one without is a lost page."""
    images = {}
    for page_id in sorted(db._store.page_ids()):
        try:
            images[page_id] = db._store.read_page(page_id)
        except StorageError as err:
            report.damage.append(
                Damage("storage", "<pages>", key=(page_id,), detail=str(err))
            )
    for name in db.index_names():
        for leaf in db.index(name).leaves():
            if leaf.rec_lsn is not None:
                continue  # dirty: its image is stale by design
            if not db._store.has_page(leaf.page_id):
                if leaf.values:
                    report.damage.append(Damage(
                        "storage", name, key=(leaf.page_id,),
                        detail=f"leaf page {leaf.page_id}: the clean leaf "
                        f"holds {len(leaf.values)} entries and has no "
                        f"durable image",
                    ))
                continue  # an empty leaf never written
            if leaf.page_id not in images:
                continue  # torn: reported above
            want = db._pool.payloads(leaf)[0]
            got = [payload for _, payload in images[leaf.page_id].records()]
            if got != want:
                report.damage.append(Damage(
                    "storage", name, key=(leaf.page_id,),
                    detail=f"leaf page {leaf.page_id}: its image holds "
                    f"{_entries(got, want)!r}, the leaf "
                    f"{_entries(want, got)!r}",
                ))


def _entries(payloads, others):
    """``(key, row, is_ghost, lsn)`` of the packed entries in
    ``payloads`` that ``others`` lacks."""
    return [
        (key, row, ghost, lsn)
        for _, key, row, ghost, lsn in map(
            unpack_entry, [p for p in payloads if p not in others]
        )
    ]
