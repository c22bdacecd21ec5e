"""Unit tests for versioned records and ghost-aware indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import KeyRange, Row, StorageError
from repro.storage import Index, VersionedRecord


class TestVersionedRecord:
    def test_initial_state(self):
        r = VersionedRecord((1,), Row(a=1))
        assert r.current_row == Row(a=1)
        assert not r.is_ghost
        assert r.version_count() == 0
        assert r.latest_committed() is None

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
        r.make_ghost()
        r.stamp_version(20)
        assert r.read_as_of(15) == Row(v=0)
        assert r.read_as_of(25) is None

    def test_revive(self):
        r = VersionedRecord((1,), Row(v=0))
        r.make_ghost()
        r.revive(Row(v=2))
        assert not r.is_ghost
        assert r.current_row == Row(v=2)

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


class TestIndex:
    def make_index(self):
        return Index("idx", ("k",), order=4)

    def test_insert_and_get(self):
        idx = self.make_index()
        idx.insert((1,), Row(k=1, v="a"))
        assert idx.get_row((1,)) == Row(k=1, v="a")
        assert (1,) in idx
        assert len(idx) == 1

    def test_key_of(self):
        idx = Index("idx", ("a", "b"))
        assert idx.key_of(Row(a=1, b=2, c=3)) == (1, 2)

    def test_duplicate_live_insert_raises(self):
        idx = self.make_index()
        idx.insert((1,), Row(k=1))
        with pytest.raises(StorageError):
            idx.insert((1,), Row(k=1))

    def test_logical_delete_creates_ghost(self):
        idx = self.make_index()
        idx.insert((1,), Row(k=1))
        idx.logical_delete((1,))
        assert idx.get_row((1,)) is None
        assert (1,) not in idx
        assert idx.total_entries() == 1
        assert idx.ghost_count() == 1
        assert idx.ghost_keys() == [(1,)]

    def test_insert_revives_ghost(self):
        idx = self.make_index()
        record = idx.insert((1,), Row(k=1, v="old"))
        idx.logical_delete((1,))
        revived = idx.insert((1,), Row(k=1, v="new"))
        assert revived is record  # same slot, escrow state survives
        assert idx.get_row((1,)) == Row(k=1, v="new")
        assert idx.ghost_count() == 0

    def test_update_in_place(self):
        idx = self.make_index()
        idx.insert((1,), Row(k=1, v=0))
        idx.update((1,), Row(k=1, v=5))
        assert idx.get_row((1,)) == Row(k=1, v=5)

    def test_update_ghost_raises(self):
        idx = self.make_index()
        idx.insert((1,), Row(k=1))
        idx.logical_delete((1,))
        with pytest.raises(StorageError):
            idx.update((1,), Row(k=1))

    def test_physical_delete(self):
        idx = self.make_index()
        idx.insert((1,), Row(k=1))
        idx.logical_delete((1,))
        idx.physical_delete((1,))
        assert idx.total_entries() == 0
        assert idx.ghost_count() == 0

    def test_scan_skips_ghosts_by_default(self):
        idx = self.make_index()
        for i in range(5):
            idx.insert((i,), Row(k=i))
        idx.logical_delete((2,))
        assert [k for k, _ in idx.scan()] == [(0,), (1,), (3,), (4,)]
        assert [k for k, _ in idx.scan(include_ghosts=True)] == [
            (i,) for i in range(5)
        ]

    def test_scan_with_range(self):
        idx = self.make_index()
        for i in range(10):
            idx.insert((i,), Row(k=i))
        got = [k for k, _ in idx.scan(KeyRange.between((3,), (6,)))]
        assert got == [(3,), (4,), (5,), (6,)]

    def test_rows_iterator(self):
        idx = self.make_index()
        idx.insert((1,), Row(k=1))
        idx.insert((2,), Row(k=2))
        assert list(idx.rows()) == [Row(k=1), Row(k=2)]

    def test_next_key_sees_ghosts_by_default(self):
        idx = self.make_index()
        for i in range(4):
            idx.insert((i,), Row(k=i))
        idx.logical_delete((2,))
        assert idx.next_key((1,)) == (2,)
        assert idx.next_key((1,), include_ghosts=False) == (3,)
        assert idx.prev_key((3,)) == (2,)
        assert idx.prev_key((3,), include_ghosts=False) == (1,)

    def test_check_invariants_detects_sync(self):
        idx = self.make_index()
        idx.insert((1,), Row(k=1))
        idx.logical_delete((1,))
        idx.check_invariants()
        # sabotage the registry
        idx._ghost_keys.clear()
        with pytest.raises(StorageError):
            idx.check_invariants()


class TestIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "ldelete", "pdelete"]),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=60,
        )
    )
    def test_ghost_registry_always_consistent(self, ops):
        idx = Index("p", ("k",), order=4)
        live, ghosts = set(), set()
        for op, k in ops:
            key = (k,)
            if op == "insert":
                if key in live:
                    with pytest.raises(StorageError):
                        idx.insert(key, Row(k=k))
                else:
                    idx.insert(key, Row(k=k))
                    live.add(key)
                    ghosts.discard(key)
            elif op == "ldelete":
                if key in live:
                    idx.logical_delete(key)
                    live.discard(key)
                    ghosts.add(key)
                else:
                    with pytest.raises(StorageError):
                        idx.logical_delete(key)
            else:
                if key in live or key in ghosts:
                    idx.physical_delete(key)
                    live.discard(key)
                    ghosts.discard(key)
                else:
                    with pytest.raises(StorageError):
                        idx.physical_delete(key)
        idx.check_invariants()
        assert len(idx) == len(live)
        assert idx.ghost_count() == len(ghosts)
