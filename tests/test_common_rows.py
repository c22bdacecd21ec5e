"""Unit tests for the Row model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import Row


class TestRowBasics:
    def test_mapping_access(self):
        row = Row(id=1, name="a")
        assert row["id"] == 1
        assert row["name"] == "a"

    def test_len_and_iter(self):
        row = Row(a=1, b=2, c=3)
        assert len(row) == 3
        assert set(row) == {"a", "b", "c"}

    def test_missing_column_raises(self):
        with pytest.raises(KeyError):
            Row(a=1)["b"]

    def test_construct_from_mapping(self):
        row = Row({"a": 1}, b=2)
        assert row["a"] == 1
        assert row["b"] == 2

    def test_kwargs_override_mapping(self):
        row = Row({"a": 1}, a=5)
        assert row["a"] == 5

    def test_repr_contains_columns(self):
        assert "qty=3" in repr(Row(qty=3))


class TestRowImmutability:
    def test_setattr_rejected(self):
        row = Row(a=1)
        with pytest.raises(AttributeError):
            row.a = 2

    def test_replace_returns_new_row(self):
        row = Row(a=1, b=2)
        new = row.replace(b=3)
        assert row["b"] == 2
        assert new["b"] == 3
        assert new["a"] == 1

    def test_replace_can_add_columns(self):
        assert Row(a=1).replace(b=2)["b"] == 2


class TestRowEqualityHash:
    def test_equal_rows_hash_equal(self):
        assert Row(a=1, b=2) == Row(b=2, a=1)
        assert hash(Row(a=1, b=2)) == hash(Row(b=2, a=1))

    def test_unequal_rows(self):
        assert Row(a=1) != Row(a=2)
        assert Row(a=1) != Row(a=1, b=2)

    def test_compares_to_plain_dict(self):
        assert Row(a=1) == {"a": 1}

    def test_usable_in_set(self):
        assert len({Row(a=1), Row(a=1), Row(a=2)}) == 2


class TestRowOperations:
    def test_project(self):
        row = Row(a=1, b=2, c=3)
        assert row.project(("a", "c")) == Row(a=1, c=3)

    def test_project_missing_raises(self):
        with pytest.raises(KeyError):
            Row(a=1).project(("b",))

    def test_key_single_column_is_tuple(self):
        assert Row(a=1, b=2).key(("a",)) == (1,)

    def test_key_composite(self):
        assert Row(a=1, b=2, c=3).key(("c", "a")) == (3, 1)

    def test_merge_prefers_other(self):
        assert Row(a=1, b=2).merge(Row(b=9, c=3)) == Row(a=1, b=9, c=3)

    def test_rename(self):
        assert Row(a=1, b=2).rename({"a": "x"}) == Row(x=1, b=2)

    def test_merge_takes_a_copy_of_the_mapping_it_is_given(self):
        updates = {"b": 9}
        merged = Row(a=1, b=2).merge(updates)
        updates["b"] = 0
        updates["c"] = 3
        assert merged == Row(a=1, b=9)

    def test_derived_rows_leave_their_source_alone(self):
        row = Row(a=1, b=2)
        assert row.project(("a",)) == Row(a=1)
        assert row.merge({"b": 9, "c": 3}) == Row(a=1, b=9, c=3)
        assert row.rename({"a": "x"}) == Row(x=1, b=2)
        assert row == Row(a=1, b=2) and hash(row) == hash(Row(a=1, b=2))

    def test_as_dict_is_mutable_copy(self):
        row = Row(a=1)
        d = row.as_dict()
        d["a"] = 99
        assert row["a"] == 1


simple_values = st.one_of(st.integers(), st.text(max_size=8), st.booleans())
row_dicts = st.dictionaries(
    st.text(min_size=1, max_size=6), simple_values, min_size=1, max_size=6
)


class TestRowProperties:
    @given(row_dicts)
    def test_replace_identity(self, d):
        row = Row(d)
        assert row.replace() == row

    @given(row_dicts)
    def test_project_all_columns_is_identity(self, d):
        row = Row(d)
        assert row.project(tuple(d)) == row

    @given(row_dicts, row_dicts)
    def test_merge_contains_all_columns(self, d1, d2):
        merged = Row(d1).merge(Row(d2))
        assert set(merged) == set(d1) | set(d2)
        for k, v in d2.items():
            assert merged[k] == v

    @given(row_dicts)
    def test_hash_consistent_with_eq(self, d):
        assert hash(Row(d)) == hash(Row(dict(d)))
