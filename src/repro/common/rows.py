"""The row model.

A :class:`Row` is an immutable mapping from column names to values. Rows are
deliberately schema-light: the catalog validates shapes at the table/view
boundary, while the storage and maintenance layers treat rows as opaque
value bags with a few convenience operations (projection, update, key
extraction).

Immutability matters here: rows are shared between base tables, deltas, log
records, and versions kept for snapshot reads. An in-place mutation of a
shared row would corrupt history, so :class:`Row` provides only functional
update (:meth:`Row.replace`).
"""

from collections.abc import Mapping


class Row(Mapping):
    """An immutable, hashable mapping of column name to value.

    >>> r = Row(id=1, qty=3)
    >>> r["qty"]
    3
    >>> r.replace(qty=4)["qty"]
    4
    >>> r.project(("id",))
    Row(id=1)
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, _mapping=None, **columns):
        if _mapping is not None:
            values = dict(_mapping)
            values.update(columns)
        else:
            values = columns
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Row is immutable")

    def __getitem__(self, column):
        return self._values[column]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    # The dict's own views: the Mapping mixins would go through
    # __getitem__ once per column.

    def keys(self):
        return self._values.keys()

    def values(self):
        return self._values.values()

    def items(self):
        return self._values.items()

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset(self._values.items()))
            )
        return self._hash

    def __eq__(self, other):
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, Mapping):
            return dict(self._values) == dict(other)
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"Row({inner})"

    def replace(self, **changes):
        """Return a new row with ``changes`` applied over this row."""
        values = dict(self._values)
        values.update(changes)
        return adopt_row(values)

    def project(self, columns):
        """Return a new row containing only ``columns`` (in their order)."""
        return adopt_row({c: self._values[c] for c in columns})

    def key(self, columns):
        """Extract the values of ``columns`` as a tuple, for use as an
        index key."""
        if len(columns) == 1:
            return (self._values[columns[0]],)
        return tuple(self._values[c] for c in columns)

    def merge(self, other):
        """Return a new row combining this row's columns with ``other``'s.

        Columns present in both take ``other``'s value. Used when joining
        base rows into join-view rows.
        """
        values = dict(self._values)
        values.update(other)
        return adopt_row(values)

    def rename(self, mapping):
        """Return a new row with columns renamed per ``mapping``
        (old name -> new name); unmapped columns keep their names."""
        return adopt_row(
            {mapping.get(k, k): v for k, v in self._values.items()}
        )

    def as_dict(self):
        """Return a plain mutable dict copy of the row."""
        return dict(self._values)


_new_row = object.__new__
_set_values = Row._values.__set__
_set_hash = Row._hash.__set__


def adopt_row(values):
    """A :class:`Row` over ``values``, a dict the caller hands over and
    keeps no reference to — no copy is made (the hot paths: a row decoded
    from the log, a functional update)."""
    row = _new_row(Row)
    _set_values(row, values)
    _set_hash(row, None)
    return row
