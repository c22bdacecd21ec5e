"""Unit tests for versioned records and ghost-aware indexes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.common import KeyRange, Row, StorageError
from repro.storage import Index, VersionedRecord
from repro.txn import write
from repro.txn.write import erase, patch, put


class TestVersionedRecord:
    def test_initial_state(self):
        r = VersionedRecord((1,), Row(a=1))
        assert r.current_row == Row(a=1)
        assert not r.is_ghost
        assert r.version_count() == 0
        assert r.committed_ts is None

    def test_stamp_and_read_as_of(self):
        r = VersionedRecord((1,), Row(v=0))
        r.stamp_version(10)
        r.current_row = Row(v=1)
        r.stamp_version(20)
        assert r.read_as_of(5) is None
        assert r.read_as_of(10) == Row(v=0)
        assert r.read_as_of(15) == Row(v=0)
        assert r.read_as_of(20) == Row(v=1)
        assert r.read_as_of(100) == Row(v=1)

    def test_restamp_same_ts_replaces(self):
        r = VersionedRecord((1,), Row(v=0))
        r.stamp_version(10)
        r.current_row = Row(v=9)
        r.stamp_version(10)
        assert r.version_count() == 1
        assert r.read_as_of(10) == Row(v=9)

    def test_non_monotonic_stamp_rejected(self):
        r = VersionedRecord((1,), Row(v=0))
        r.stamp_version(10)
        with pytest.raises(StorageError):
            r.stamp_version(5)

    def test_ghost_version_invisible(self):
        r = VersionedRecord((1,), Row(v=0))
        r.stamp_version(10)
        r.is_ghost = True
        r.stamp_version(20)
        assert r.read_as_of(15) == Row(v=0)
        assert r.read_as_of(25) is None

    def test_prune_versions(self):
        r = VersionedRecord((1,), Row(v=0))
        for ts in (10, 20, 30, 40):
            r.current_row = Row(v=ts)
            r.stamp_version(ts)
        dropped = r.prune_versions(25)
        assert dropped == 1
        # snapshot at 25 must still see the version stamped at 20
        assert r.read_as_of(25) == Row(v=20)
        assert r.read_as_of(40) == Row(v=40)

    def test_prune_empty(self):
        assert VersionedRecord((1,), None).prune_versions(10) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 3), st.booleans(),
                  st.one_of(st.none(), st.integers(0, 40))),
        max_size=12,
    ))
    def test_history_matches_a_list_of_versions(self, stamps):
        """Keeping the newest version in the record and only older ones
        as objects answers every read as a plain list of versions did
        (append, fold a same-timestamp re-stamp, prune to the horizon)."""
        record, model, ts = VersionedRecord((1,), None), [], 0
        for step, (gap, is_ghost, horizon) in enumerate(stamps):
            ts += gap
            record.current_row, record.is_ghost = Row(v=step), is_ghost
            record.stamp_version(ts, horizon)
            if model and model[-1][0] == ts:
                model[-1] = (ts, Row(v=step), is_ghost)
            else:
                model.append((ts, Row(v=step), is_ghost))
            if horizon is not None:
                keep = max([i for i, v in enumerate(model) if v[0] <= horizon],
                           default=0)
                del model[:keep]
            assert record.version_count() == len(model)
            for at in range(ts + 2):
                seen = [v for v in model if v[0] <= at]
                expected = None if not seen or seen[-1][2] else seen[-1][1]
                assert record.read_as_of(at) == expected


def live(row):
    return (row, False)


def ghost(row):
    return (row, True)


class TestIndex:
    """``set_entry`` is the one mutator: a slot is live, ghost or absent."""

    def make_index(self):
        return Index("idx", ("k",), order=4)

    def test_insert_and_get(self):
        idx = self.make_index()
        idx.set_entry((1,), live(Row(k=1, v="a")))
        assert idx.get_row((1,)) == Row(k=1, v="a")
        assert (1,) in idx
        assert len(idx) == 1

    def test_key_of(self):
        idx = Index("idx", ("a", "b"))
        assert idx.key_of(Row(a=1, b=2, c=3)) == (1, 2)

    def test_duplicate_live_insert_raises(self):
        """The refusal lives in ``put`` (the index only assigns)."""
        db = Database()
        db.create_table("t", ("k",), ("k",))
        txn = db.begin()
        put(db, txn, db.index("t"), (1,), Row(k=1))
        with pytest.raises(StorageError, match="duplicate key"):
            put(db, txn, db.index("t"), (1,), Row(k=1))
        assert db.index("t").get_row((1,)) == Row(k=1)
        db.commit(txn)
        assert len(db.log) == 2  # one INSERT, the COMMIT

    def test_logical_delete_creates_ghost(self):
        idx = self.make_index()
        idx.set_entry((1,), live(Row(k=1)))
        idx.set_entry((1,), ghost(Row(k=1)))
        assert idx.get_row((1,)) is None
        assert (1,) not in idx
        assert idx.total_entries() == 1
        assert idx.ghost_count() == 1
        assert idx.is_ghost((1,))

    def test_insert_revives_ghost(self):
        idx = self.make_index()
        record = idx.set_entry((1,), live(Row(k=1, v="old")))
        record.stamp_version(5)
        assert idx.set_entry((1,), ghost(Row(k=1, v="old"))) is record
        revived = idx.set_entry((1,), live(Row(k=1, v="new")))
        assert revived is record  # same slot, escrow state survives
        assert not record.is_ghost and record.version_count() == 1
        assert idx.get_row((1,)) == Row(k=1, v="new")
        assert idx.ghost_count() == 0 and not idx.is_ghost((1,))

    def test_update_in_place(self):
        idx = self.make_index()
        record = idx.set_entry((1,), live(Row(k=1, v=0)))
        assert idx.set_entry((1,), live(Row(k=1, v=5))) is record
        assert idx.get_row((1,)) == Row(k=1, v=5)

    def test_patch_and_ghost_leave_a_ghost_alone(self):
        """What ``Index.update`` on a ghost used to refuse: the logged
        writes that need a live row find none and log nothing."""
        db = Database()
        db.create_table("t", ("k",), ("k",))
        txn = db.begin()
        index = db.index("t")
        put(db, txn, index, (1,), Row(k=1))
        assert write.ghost(db, txn, index, (1,)) is not None
        logged = len(db.log)
        assert patch(db, txn, index, (1,), Row(k=1)) is None
        assert write.ghost(db, txn, index, (1,)) is None
        assert erase(db, txn, index, (2,)) is None
        assert len(db.log) == logged and index.is_ghost((1,))

    def test_assigning_absent_removes_the_slot(self):
        idx = self.make_index()
        idx.set_entry((1,), live(Row(k=1)))
        record = idx.set_entry((1,), ghost(Row(k=1)))
        assert idx.set_entry((1,), None) is record
        assert idx.total_entries() == 0
        assert idx.ghost_count() == 0
        assert idx.set_entry((1,), None) is None  # absent stays absent
        idx.check_invariants()

    def test_assign_ghost_to_an_absent_key(self):
        idx = self.make_index()
        idx.set_entry((1,), ghost(Row(k=1)))
        assert idx.get_record((1,)) is None
        assert idx.get_record((1,), include_ghost=True).current_row == Row(k=1)
        assert len(idx) == 0 and idx.ghost_count() == 1
        idx.check_invariants()

    def test_scan_skips_ghosts_by_default(self):
        idx = self.make_index()
        for i in range(5):
            idx.set_entry((i,), live(Row(k=i)))
        idx.set_entry((2,), ghost(Row(k=2)))
        assert [k for k, _ in idx.scan()] == [(0,), (1,), (3,), (4,)]
        assert [k for k, _ in idx.scan(include_ghosts=True)] == [
            (i,) for i in range(5)
        ]

    def test_scan_with_range(self):
        idx = self.make_index()
        for i in range(10):
            idx.set_entry((i,), live(Row(k=i)))
        got = [k for k, _ in idx.scan(KeyRange.between((3,), (6,)))]
        assert got == [(3,), (4,), (5,), (6,)]

    def test_rows_iterator(self):
        idx = self.make_index()
        idx.set_entry((1,), live(Row(k=1)))
        idx.set_entry((2,), live(Row(k=2)))
        assert list(idx.rows()) == [Row(k=1), Row(k=2)]

    def test_next_key_sees_ghosts_by_default(self):
        idx = self.make_index()
        for i in range(4):
            idx.set_entry((i,), live(Row(k=i)))
        idx.set_entry((2,), ghost(Row(k=2)))
        assert idx.next_key((1,)) == (2,)
        assert idx.next_key((1,), include_ghosts=False) == (3,)
        assert idx.prev_key((3,)) == (2,)
        assert idx.prev_key((3,), include_ghosts=False) == (1,)

    def test_check_invariants_detects_sync(self):
        idx = self.make_index()
        idx.set_entry((1,), live(Row(k=1)))
        idx.set_entry((1,), ghost(Row(k=1)))
        idx.check_invariants()
        # sabotage the registry
        idx._ghost_keys.clear()
        with pytest.raises(StorageError):
            idx.check_invariants()


class TestPositions:
    """``locate`` is one descent: the record, ghosts included, and the gap
    fence; writes through a position reuse its leaf while the tree keeps
    its shape."""

    def test_a_position_holds_the_record_and_the_fence(self):
        idx = Index("i", ("k",), order=4)
        for k in (2, 4, 6, 8, 10, 12):
            idx.set_entry((k,), live(Row(k=k)))
        idx.set_entry((6,), ghost(Row(k=6)))
        assert idx._tree.height() > 1  # fences cross leaves below
        assert idx.locate((6,)).record.is_ghost
        assert idx.locate((6,)).fence == (6,)
        assert idx.locate((6,)).live() is None
        for k, fence in ((1, (2,)), (5, (6,)), (7, (8,)), (13, None)):
            at = idx.locate((k,))
            assert at.record is None
            assert at.fence == fence == idx.next_key((k,), inclusive=True)
        leaves = list(idx.leaves())
        for leaf, right in zip(leaves, leaves[1:]):  # read from the sibling
            at = idx.locate((leaf.keys[-1][0] + 1,))
            assert at.leaf is leaf and at.fence == right.keys[0]

    def test_a_key_the_index_cannot_order_is_refused(self):
        idx = Index("i", ("k",), order=4)
        idx.set_entry((1,), live(Row(k=1)))
        with pytest.raises(StorageError, match=r"index 'i'.*\('x',\)"):
            idx.locate(("x",))
        nulls = Index("n", ("k",), order=4)
        for _ in range(3):
            nulls.set_entry((None,), live(Row(k=None)))
        assert nulls.locate((None,)).record is not None

    def test_splits_borrows_and_merges_move_the_shape(self):
        idx = Index("i", ("k",), order=4)
        shapes = [idx._tree.shape]
        for k in range(12):
            idx.set_entry((k,), live(Row(k=k)))
            shapes.append(idx._tree.shape)
        for k in range(12):
            idx.set_entry((k,), None)
            shapes.append(idx._tree.shape)
        moved = sum(b > a for a, b in zip(shapes, shapes[1:]))
        assert 0 < moved < len(shapes) - 1  # plain writes leave it alone

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["live", "ghost", "absent"]),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=30),
        ),
        max_size=60,
    ))
    @example([  # deleting 2 raises the separator to 3: 2 now routes left
        ("live", 0, 0), ("live", 1, 0), ("live", 2, 0), ("live", 3, 0),
        ("absent", 2, 0), ("live", 2, 1),
    ])
    def test_writes_through_any_earlier_position_land_on_the_key(self, ops):
        """A position taken any number of writes ago — across splits,
        borrows and merges — writes the slot it names."""
        idx = Index("p", ("k",), order=4)
        model, taken = {}, []
        for op, k, age in ops:
            key = (k,)
            taken.append(idx.locate(key))
            earlier = [at for at in taken if at.key == key]
            at = earlier[-1 - age % len(earlier)]
            if op == "absent":
                idx.set_entry(key, None, at=at)
                model.pop(key, None)
            else:
                idx.set_entry(key, (Row(k=k), op == "ghost"), at=at)
                model[key] = op == "ghost"
            idx.check_invariants()
        assert {
            key: record.is_ghost
            for key, record in idx.scan(include_ghosts=True)
        } == model


class TestIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["live", "ghost", "absent"]),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=60,
        )
    )
    def test_ghost_registry_always_consistent(self, ops):
        idx = Index("p", ("k",), order=4)
        model = {}
        for op, k in ops:
            key = (k,)
            held = idx.get_record(key, include_ghost=True)
            if op == "absent":
                assert idx.set_entry(key, None) is held
                model.pop(key, None)
            else:
                entry = (Row(k=k), op == "ghost")
                record = idx.set_entry(key, entry)
                assert held is None or record is held  # assigned in place
                model[key] = entry
            idx.check_invariants()
        assert {
            key: (record.current_row, record.is_ghost)
            for key, record in idx.scan(include_ghosts=True)
        } == model
        assert len(idx) == sum(1 for _, g in model.values() if not g)
        assert idx.ghost_count() == sum(1 for _, g in model.values() if g)
