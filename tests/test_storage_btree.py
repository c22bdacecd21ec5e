"""Unit and property tests for the B+-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import KeyRange, StorageError
from repro.common.keys import NEG_INF, POS_INF
from repro.storage import BPlusTree


def make_tree(n, order=8):
    t = BPlusTree(order=order)
    for i in range(n):
        t.insert((i,), f"v{i}")
    return t


class TestBasicOperations:
    def test_empty_tree(self):
        t = BPlusTree()
        assert len(t) == 0
        assert t.get((1,)) is None
        assert t.first_key() is None
        assert t.last_key() is None
        assert list(t.items()) == []

    def test_insert_and_get(self):
        t = make_tree(10)
        for i in range(10):
            assert t.get((i,)) == f"v{i}"

    def test_get_default(self):
        assert BPlusTree().get((9,), default="d") == "d"

    def test_contains(self):
        t = make_tree(5)
        assert (3,) in t
        assert (7,) not in t

    def test_duplicate_insert_raises(self):
        t = make_tree(3)
        with pytest.raises(StorageError):
            t.insert((1,), "x")

    def test_duplicate_insert_of_the_stored_object_raises_too(self):
        t = make_tree(3)
        with pytest.raises(StorageError):
            t.insert((1,), t.get((1,)))

    def test_setdefault_finds_or_places_in_one_call(self):
        t = make_tree(3)
        held = t.get((1,))
        assert t.setdefault((1,), "new") is held and len(t) == 3
        assert t.setdefault((7,), "new") == "new" and len(t) == 4
        assert t.get((7,)) == "new"
        for k in range(10, 40):  # placements split leaves like insert does
            t.setdefault((k,), k)
        t.check_invariants()
        assert len(t) == 34

    def test_update_existing(self):
        t = make_tree(3)
        t.update((2,), "u")
        assert t.get((2,)) == "u"

    def test_update_missing_raises(self):
        with pytest.raises(StorageError):
            make_tree(3).update((9,), "u")

    def test_delete_returns_value(self):
        t = make_tree(5)
        assert t.delete((2,)) == "v2"
        assert t.get((2,)) is None
        assert len(t) == 4

    def test_delete_missing_raises(self):
        with pytest.raises(StorageError):
            make_tree(3).delete((9,))

    def test_pop_with_default(self):
        t = make_tree(3)
        assert t.pop((9,), None) is None
        assert t.pop((1,), None) == "v1"

    def test_pop_without_default_raises(self):
        with pytest.raises(StorageError):
            BPlusTree().pop((1,))

    def test_clear(self):
        t = make_tree(50)
        t.clear()
        assert len(t) == 0
        assert list(t.items()) == []

    def test_order_too_small_rejected(self):
        with pytest.raises(StorageError):
            BPlusTree(order=3)


class TestSplitsAndMerges:
    def test_many_inserts_keep_invariants(self):
        t = make_tree(500, order=4)
        t.check_invariants()
        assert t.height() > 2

    def test_reverse_inserts(self):
        t = BPlusTree(order=4)
        for i in reversed(range(200)):
            t.insert((i,), i)
        t.check_invariants()
        assert list(t.keys()) == [(i,) for i in range(200)]

    def test_delete_all_leaves_empty(self):
        t = make_tree(300, order=4)
        for i in range(300):
            t.delete((i,))
            t.check_invariants()
        assert len(t) == 0

    def test_delete_reverse_order(self):
        t = make_tree(300, order=4)
        for i in reversed(range(300)):
            t.delete((i,))
        t.check_invariants()
        assert len(t) == 0

    def test_interleaved_insert_delete(self):
        t = BPlusTree(order=4)
        for i in range(200):
            t.insert((i,), i)
            if i % 3 == 0:
                t.delete((i,))
        t.check_invariants()
        assert len(t) == sum(1 for i in range(200) if i % 3 != 0)

    def test_root_shrinks(self):
        t = make_tree(100, order=4)
        for i in range(99):
            t.delete((i,))
        assert t.height() == 1
        t.check_invariants()


class TestNavigation:
    def test_first_last(self):
        t = make_tree(10)
        assert t.first_key() == (0,)
        assert t.last_key() == (9,)

    def test_next_key_exclusive(self):
        t = make_tree(10)
        assert t.next_key((3,)) == (4,)
        assert t.next_key((9,)) is None

    def test_next_key_inclusive(self):
        t = make_tree(10)
        assert t.next_key((3,), inclusive=True) == (3,)

    def test_next_key_between_stored_keys(self):
        t = BPlusTree()
        t.insert((10,), "a")
        t.insert((20,), "b")
        assert t.next_key((15,)) == (20,)

    def test_next_key_from_neg_inf(self):
        t = make_tree(3)
        assert t.next_key(NEG_INF) == (0,)

    def test_prev_key(self):
        t = make_tree(10)
        assert t.prev_key((3,)) == (2,)
        assert t.prev_key((0,)) is None
        assert t.prev_key((3,), inclusive=True) == (3,)
        assert t.prev_key(POS_INF) == (9,)

    def test_prev_key_between_stored_keys(self):
        t = BPlusTree()
        t.insert((10,), "a")
        t.insert((20,), "b")
        assert t.prev_key((15,)) == (10,)

    def test_navigation_across_leaf_boundaries(self):
        t = make_tree(100, order=4)
        for i in range(99):
            assert t.next_key((i,)) == (i + 1,)
        for i in range(1, 100):
            assert t.prev_key((i,)) == (i - 1,)


class TestScans:
    def test_full_scan_sorted(self):
        t = make_tree(50, order=4)
        assert list(t.keys()) == [(i,) for i in range(50)]

    def test_range_scan_closed(self):
        t = make_tree(20)
        got = [k for k, _ in t.range_items(KeyRange.between((5,), (10,)))]
        assert got == [(i,) for i in range(5, 11)]

    def test_range_scan_open_ends(self):
        t = make_tree(20)
        r = KeyRange.between((5,), (10,), low_inclusive=False, high_inclusive=False)
        got = [k for k, _ in t.range_items(r)]
        assert got == [(i,) for i in range(6, 10)]

    def test_range_scan_unbounded_low(self):
        t = make_tree(10)
        got = [k for k, _ in t.range_items(KeyRange.at_most((3,)))]
        assert got == [(i,) for i in range(4)]

    def test_range_scan_unbounded_high(self):
        t = make_tree(10)
        got = [k for k, _ in t.range_items(KeyRange.at_least((7,)))]
        assert got == [(7,), (8,), (9,)]

    def test_range_scan_empty_range(self):
        t = make_tree(10)
        assert list(t.range_items(KeyRange.between((5,), (2,)))) == []

    def test_range_scan_outside_population(self):
        t = make_tree(10)
        assert list(t.range_items(KeyRange.between((50,), (60,)))) == []

    def test_range_scan_requires_keyrange(self):
        with pytest.raises(StorageError):
            list(make_tree(3).range_items(((0,), (2,))))

    def test_values_iterator(self):
        t = make_tree(5)
        assert list(t.values()) == [f"v{i}" for i in range(5)]


class TestCompositeKeys:
    def test_composite_ordering(self):
        t = BPlusTree(order=4)
        keys = [("b", 1), ("a", 2), ("a", 1), ("b", 0)]
        for k in keys:
            t.insert(k, k)
        assert list(t.keys()) == sorted(keys)

    def test_composite_range(self):
        t = BPlusTree()
        for c in "abc":
            for i in range(3):
                t.insert((c, i), None)
        got = [k for k, _ in t.range_items(KeyRange.between(("b", 0), ("b", 2)))]
        assert got == [("b", 0), ("b", 1), ("b", 2)]


@st.composite
def operation_sequences(draw):
    n_ops = draw(st.integers(min_value=1, max_value=120))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["insert", "delete", "get"]))
        key = draw(st.integers(min_value=0, max_value=40))
        ops.append((kind, (key,)))
    return ops


class TestBTreeModelBased:
    """Property tests comparing the tree against a dict model."""

    @settings(max_examples=120, deadline=None)
    @given(operation_sequences(), st.sampled_from([4, 5, 8, 32]))
    def test_matches_dict_model(self, ops, order):
        tree = BPlusTree(order=order)
        model = {}
        for kind, key in ops:
            if kind == "insert":
                if key in model:
                    with pytest.raises(StorageError):
                        tree.insert(key, key)
                else:
                    tree.insert(key, key)
                    model[key] = key
            elif kind == "delete":
                if key in model:
                    assert tree.delete(key) == model.pop(key)
                else:
                    with pytest.raises(StorageError):
                        tree.delete(key)
            else:
                assert tree.get(key) == model.get(key)
        tree.check_invariants()
        assert list(tree.keys()) == sorted(model)
        assert len(tree) == len(model)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=200), max_size=80),
        st.integers(min_value=-10, max_value=210),
    )
    def test_next_prev_match_sorted_list(self, population, probe):
        tree = BPlusTree(order=4)
        for k in population:
            tree.insert((k,), k)
        keys = sorted((k,) for k in population)
        above = [k for k in keys if k > (probe,)]
        below = [k for k in keys if k < (probe,)]
        assert tree.next_key((probe,)) == (above[0] if above else None)
        assert tree.prev_key((probe,)) == (below[-1] if below else None)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=100), max_size=60),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_range_scan_matches_filter(self, population, lo, hi):
        tree = BPlusTree(order=5)
        for k in population:
            tree.insert((k,), k)
        r = KeyRange.between((lo,), (hi,))
        got = [k for k, _ in tree.range_items(r)]
        expected = sorted((k,) for k in population if lo <= k <= hi)
        assert got == expected
