"""Lock modes, compatibility, and the conversion lattice.

The mode set is the classic multi-granularity family (IS, IX, S, SIX, U, X)
extended with **E**, the escrow (increment/decrement) mode that is the core
of transactional indexed-view maintenance:

* E conflicts with readers (S, U) and absolute writers (X) — you cannot
  observe or overwrite a counter that has uncommitted increments on it;
* E is compatible with **other E locks** — increments and decrements
  commute, so concurrent transactions may all hold E on the same hot
  aggregate row. This is what removes the view-maintenance bottleneck.

Key-range locks are modeled compositionally as :class:`RangeMode` — a pair
of a *gap* component (protecting the open interval below a key) and a *key*
component (protecting the key itself). Two range locks are compatible iff
both components are pairwise compatible. This reproduces the SQL Server
RangeS-S / RangeI-N / RangeX-X matrix and extends it uniformly to escrow
key components.
"""

import enum


class LockMode(enum.Enum):
    """Basic lock modes for tables, keys, and other resources."""

    NL = "NL"  # no lock (identity element)
    IS = "IS"  # intent share
    IX = "IX"  # intent exclusive
    S = "S"  # share
    SIX = "SIX"  # share + intent exclusive
    U = "U"  # update (read with intent to upgrade)
    X = "X"  # exclusive
    E = "E"  # escrow (commutative increment/decrement)

    def __repr__(self):
        return f"LockMode.{self.value}"


_M = LockMode

# Symmetric compatibility: frozenset pairs present => compatible.
_COMPATIBLE_PAIRS = set()


def _compat(a, b):
    _COMPATIBLE_PAIRS.add(frozenset((a, b)))


# NL is compatible with everything.
for _mode in _M:
    _compat(_M.NL, _mode)
# IS: compatible with everything except X.
for _mode in (_M.IS, _M.IX, _M.S, _M.SIX, _M.U, _M.E):
    _compat(_M.IS, _mode)
# IX: compatible with IS, IX, and E (escrow writers announce IX above).
_compat(_M.IX, _M.IX)
_compat(_M.IX, _M.E)
# S: compatible with IS, S, U.
_compat(_M.S, _M.S)
_compat(_M.S, _M.U)
# SIX: compatible with IS only (already added).
# U: compatible with IS, S (asymmetries of real U locks are simplified to
# the symmetric classic matrix).
# X: compatible with NL only (already added).
# E: compatible with IS, IX, and E.
_compat(_M.E, _M.E)


def compatible(a, b):
    """True if a lock in mode ``a`` can coexist with one in mode ``b``."""
    return frozenset((a, b)) in _COMPATIBLE_PAIRS


# Conversion lattice: supremum(held, requested) is the mode a holder must
# convert to. Entries are given for a <= b in declaration order; lookups
# normalize the pair.
_SUP = {
    frozenset((_M.IS, _M.IX)): _M.IX,
    frozenset((_M.IS, _M.S)): _M.S,
    frozenset((_M.IS, _M.SIX)): _M.SIX,
    frozenset((_M.IS, _M.U)): _M.U,
    frozenset((_M.IS, _M.X)): _M.X,
    frozenset((_M.IS, _M.E)): _M.E,
    frozenset((_M.IX, _M.S)): _M.SIX,
    frozenset((_M.IX, _M.SIX)): _M.SIX,
    frozenset((_M.IX, _M.U)): _M.X,
    frozenset((_M.IX, _M.X)): _M.X,
    frozenset((_M.IX, _M.E)): _M.X,
    frozenset((_M.S, _M.SIX)): _M.SIX,
    frozenset((_M.S, _M.U)): _M.U,
    frozenset((_M.S, _M.X)): _M.X,
    frozenset((_M.S, _M.E)): _M.X,
    frozenset((_M.SIX, _M.U)): _M.X,
    frozenset((_M.SIX, _M.X)): _M.X,
    frozenset((_M.SIX, _M.E)): _M.X,
    frozenset((_M.U, _M.X)): _M.X,
    frozenset((_M.U, _M.E)): _M.X,
    frozenset((_M.X, _M.E)): _M.X,
}


def supremum(a, b):
    """The weakest mode at least as strong as both ``a`` and ``b``.

    A transaction already holding ``a`` that requests ``b`` must end up
    holding ``supremum(a, b)``. Reading the exact value of an escrow-locked
    counter therefore forces an E -> X conversion (E ∨ S = X): exactness is
    incompatible with anyone else's pending increments, including the
    holder's peers.
    """
    if a is b:
        return a
    if a is _M.NL:
        return b
    if b is _M.NL:
        return a
    return _SUP[frozenset((a, b))]


class GapMode(enum.Enum):
    """Lock modes for the open gap below an index key."""

    NL = "NL"  # gap not locked
    INS = "I"  # intent to insert into the gap
    S = "S"  # gap read-locked (phantom protection for scans)
    X = "X"  # gap write-locked (e.g. deleting a range)

    def __repr__(self):
        return f"GapMode.{self.value}"


_GAP_COMPATIBLE = {
    frozenset((GapMode.NL, GapMode.NL)),
    frozenset((GapMode.NL, GapMode.INS)),
    frozenset((GapMode.NL, GapMode.S)),
    frozenset((GapMode.NL, GapMode.X)),
    frozenset((GapMode.INS, GapMode.INS)),
    frozenset((GapMode.S, GapMode.S)),
}


def gap_compatible(a, b):
    """Compatibility of gap components.

    Inserts into the same gap commute with each other (they create distinct
    keys; uniqueness violations surface at the key lock) but conflict with
    gap readers — an insert into a scanned gap is exactly a phantom.
    """
    return frozenset((a, b)) in _GAP_COMPATIBLE


_GAP_SUP = {
    frozenset((GapMode.NL, GapMode.INS)): GapMode.INS,
    frozenset((GapMode.NL, GapMode.S)): GapMode.S,
    frozenset((GapMode.NL, GapMode.X)): GapMode.X,
    frozenset((GapMode.INS, GapMode.S)): GapMode.X,
    frozenset((GapMode.INS, GapMode.X)): GapMode.X,
    frozenset((GapMode.S, GapMode.X)): GapMode.X,
}


def gap_supremum(a, b):
    if a is b:
        return a
    return _GAP_SUP[frozenset((a, b))]


class RangeMode:
    """A key-range lock mode: (gap component, key component).

    Named constructors mirror the SQL Server vocabulary::

        RangeMode.key(X)        plain key lock, gap free      (SQL: X)
        RangeMode.RANGE_S_S     RangeS-S: serializable scan
        RangeMode.RANGE_I_N     RangeI-N: insert into a gap
        RangeMode.RANGE_X_X     RangeX-X: key delete/update with gap
        RangeMode.key(E)        escrow on the key, gap free

    >>> RangeMode.RANGE_I_N.compatible_with(RangeMode.key(LockMode.X))
    True
    >>> RangeMode.RANGE_I_N.compatible_with(RangeMode.RANGE_S_S)
    False
    """

    __slots__ = ("gap", "key_mode")

    def __init__(self, gap, key_mode):
        self.gap = gap
        self.key_mode = key_mode

    def __repr__(self):
        return f"Range({self.gap.value},{self.key_mode.value})"

    def __eq__(self, other):
        if not isinstance(other, RangeMode):
            return NotImplemented
        return self.gap is other.gap and self.key_mode is other.key_mode

    def __hash__(self):
        return hash((self.gap, self.key_mode))

    @classmethod
    def key(cls, key_mode):
        """A lock on the key only; the gap below stays free."""
        return cls(GapMode.NL, key_mode)

    def compatible_with(self, other):
        return gap_compatible(self.gap, other.gap) and compatible(
            self.key_mode, other.key_mode
        )

    def supremum_with(self, other):
        return RangeMode(
            gap_supremum(self.gap, other.gap),
            supremum(self.key_mode, other.key_mode),
        )

    def covers(self, other):
        return self.supremum_with(other) == self


RangeMode.RANGE_S_S = RangeMode(GapMode.S, LockMode.S)
RangeMode.RANGE_S_U = RangeMode(GapMode.S, LockMode.U)
RangeMode.RANGE_I_N = RangeMode(GapMode.INS, LockMode.NL)
RangeMode.RANGE_X_X = RangeMode(GapMode.X, LockMode.X)
RangeMode.RANGE_S_E = RangeMode(GapMode.S, LockMode.E)


def mode_compatible(a, b):
    """Compatibility over both plain :class:`LockMode` and
    :class:`RangeMode` values, promoting plain modes to key-only range
    modes when mixed."""
    a_range = isinstance(a, RangeMode)
    b_range = isinstance(b, RangeMode)
    if not a_range and not b_range:
        return compatible(a, b)
    if not a_range:
        a = RangeMode.key(a)
    if not b_range:
        b = RangeMode.key(b)
    return a.compatible_with(b)


def mode_supremum(a, b):
    """Supremum over mixed plain/range modes (see :func:`mode_compatible`)."""
    a_range = isinstance(a, RangeMode)
    b_range = isinstance(b, RangeMode)
    if not a_range and not b_range:
        return supremum(a, b)
    if not a_range:
        a = RangeMode.key(a)
    if not b_range:
        b = RangeMode.key(b)
    return a.supremum_with(b)


def covers(held, wanted):
    """True if a holder of ``held`` that asks for ``wanted`` needs no
    conversion: ``mode_supremum(held, wanted) == held``. A plain mode never
    covers a range mode (the supremum is the promoted range mode), so the
    first key-range request on a plainly locked resource converts it."""
    return held is wanted or mode_supremum(held, wanted) == held
