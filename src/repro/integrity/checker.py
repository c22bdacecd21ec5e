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
   the slotted-page mirror agrees entry-for-entry with the live indexes
   (key set, row contents, ghost flags).

Like ``Database.check_view_consistency``, the sweep is only meaningful
at quiescence — in-flight transactions legitimately leave views ahead of
or behind their bases mid-statement. The checker never repairs anything;
pair it with ``Database.check_integrity(quarantine=True)`` and
``Database.rebuild_view`` for the repair path (see
:mod:`repro.integrity.quarantine`).
"""

from repro.common import CatalogError, StorageError
from repro.views.definition import expected_index_contents


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
    """Layer 3: durable page images decode, and the page mirror agrees
    entry-for-entry with the live indexes. Only meaningful at
    quiescence, like the view sweep: mid-transaction the mirror is
    legitimately ahead (it applies records at append time, the live row
    folds escrow at commit)."""
    for page_id in sorted(db._store.page_ids()):
        try:
            db._store.read_page(page_id)
        except StorageError as err:
            report.damage.append(
                Damage("storage", "<pages>", key=(page_id,), detail=str(err))
            )
    live = {}
    for name in db.index_names():
        for key, record in db.index(name).scan(include_ghosts=True):
            live[name, key] = (record.current_row.as_dict(), record.is_ghost)
    mirrored = {
        (index_name, key): (row, ghost)
        for index_name, key, row, ghost in db._pages.iter_entries()
    }
    for locator in sorted(set(live) | set(mirrored), key=repr):
        want, got = live.get(locator), mirrored.get(locator)
        if want == got:
            continue
        if want is None:
            detail = f"mirror entry {got!r} has no live record"
        elif got is None:
            detail = f"live record {want!r} missing from the page mirror"
        else:
            detail = f"mirror disagrees with live record: {got!r} != {want!r}"
        report.damage.append(
            Damage("storage", locator[0], key=locator[1], detail=detail)
        )
