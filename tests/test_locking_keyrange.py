"""Unit tests for key-range lock *planning* (which resources, which modes).

The concurrency tests exercise the plans end-to-end; these pin down the
plans themselves: fence selection, EOF handling, ghost keys as fence
posts, and the serializable/non-serializable split.
"""

from repro.common import KeyRange, Row
from repro.locking import GapMode, LockMode, RangeMode
from repro.locking.keyrange import (
    eof_resource,
    gap_only,
    key_resource,
    locks_for_escrow_update,
    locks_for_ghost_cleanup,
    locks_for_insert,
    locks_for_logical_delete,
    locks_for_point_read,
    locks_for_range_scan,
    locks_for_update,
    table_resource,
)
from repro.storage import Index

M = LockMode


def make_index(keys=(2, 5, 8), ghosts=()):
    idx = Index("i", ("k",), order=4)
    for k in keys:
        idx.set_entry((k,), (Row(k=k), k in ghosts))
    return idx


class TestResourceNames:
    def test_names(self):
        assert table_resource("t") == ("table", "t")
        assert key_resource("i", (1,)) == ("key", "i", (1,))
        assert eof_resource("i") == ("eof", "i")


class TestPointRead:
    def test_existing_key_locked_directly(self):
        idx = make_index()
        plan = locks_for_point_read(idx, (5,))
        assert plan == [(("key", "i", (5,)), RangeMode.key(M.S))]

    def test_ghost_key_still_lockable(self):
        idx = make_index(ghosts=(5,))
        plan = locks_for_point_read(idx, (5,))
        assert plan[0][0] == ("key", "i", (5,))

    def test_absent_key_locks_fence_gap(self):
        idx = make_index()
        plan = locks_for_point_read(idx, (3,))
        resource, mode = plan[0]
        assert resource == ("key", "i", (5,))  # next key above 3
        assert mode.gap is GapMode.S
        assert gap_only(mode)

    def test_absent_key_above_all_locks_eof(self):
        idx = make_index()
        plan = locks_for_point_read(idx, (99,))
        assert plan[0][0] == ("eof", "i")

    def test_update_mode(self):
        idx = make_index()
        plan = locks_for_point_read(idx, (5,), mode=M.U)
        assert plan[0][1] == RangeMode.key(M.U)


class TestRangeScan:
    def test_serializable_locks_keys_and_fence(self):
        idx = make_index()
        plan = locks_for_range_scan(idx, KeyRange.between((2,), (5,)))
        resources = [r for r, _ in plan]
        assert ("key", "i", (2,)) in resources
        assert ("key", "i", (5,)) in resources
        # the fence above the range: key 8, gap-only
        assert resources[-1] == ("key", "i", (8,))
        assert gap_only(plan[-1][1])
        # in-range keys carry the full RangeS-S
        assert plan[0][1] == RangeMode.RANGE_S_S

    def test_unbounded_scan_fences_eof(self):
        idx = make_index()
        plan = locks_for_range_scan(idx, KeyRange.all())
        assert plan[-1][0] == ("eof", "i")

    def test_scan_top_of_index_fences_eof(self):
        idx = make_index()
        plan = locks_for_range_scan(idx, KeyRange.at_least((8,)))
        assert plan[-1][0] == ("eof", "i")

    def test_ghosts_are_fence_posts(self):
        idx = make_index(ghosts=(5,))
        plan = locks_for_range_scan(idx, KeyRange.between((2,), (8,)))
        resources = [r for r, _ in plan]
        assert ("key", "i", (5,)) in resources  # the ghost is still locked

    def test_nonserializable_skips_gaps(self):
        idx = make_index()
        plan = locks_for_range_scan(
            idx, KeyRange.between((2,), (8,)), serializable=False
        )
        assert all(mode.gap is GapMode.NL for _, mode in plan)
        assert all(r[0] == "key" for r, _ in plan)  # no EOF fence

    def test_empty_range_no_key_locks(self):
        idx = make_index()
        plan = locks_for_range_scan(idx, KeyRange.between((3,), (4,)))
        # nothing in range; only the fence above (key 5)
        assert [r for r, _ in plan] == [("key", "i", (5,))]


class TestInsertPlans:
    def test_new_key_takes_fence_insert_intent_then_x(self):
        idx = make_index()
        plan = locks_for_insert(idx, (3,))
        assert plan[0] == (("key", "i", (5,)), RangeMode.RANGE_I_N)
        assert plan[1] == (("key", "i", (3,)), RangeMode.key(M.X))

    def test_insert_above_all_uses_eof_fence(self):
        idx = make_index()
        plan = locks_for_insert(idx, (99,))
        assert plan[0][0] == ("eof", "i")

    def test_insert_onto_ghost_needs_no_gap_lock(self):
        idx = make_index(ghosts=(5,))
        plan = locks_for_insert(idx, (5,))
        assert plan == [(("key", "i", (5,)), RangeMode.key(M.X))]

    def test_nonserializable_insert_skips_fence(self):
        idx = make_index()
        plan = locks_for_insert(idx, (3,), serializable=False)
        assert plan == [(("key", "i", (3,)), RangeMode.key(M.X))]


class TestOtherPlans:
    def test_update_is_key_x(self):
        idx = make_index()
        assert locks_for_update(idx, (5,)) == [
            (("key", "i", (5,)), RangeMode.key(M.X))
        ]

    def test_logical_delete_is_key_x_only(self):
        """Ghosting keeps the key, so no gap lock is needed — the
        simplification ghost-based deletion buys."""
        idx = make_index()
        assert locks_for_logical_delete(idx, (5,)) == [
            (("key", "i", (5,)), RangeMode.key(M.X))
        ]

    def test_escrow_update_is_key_e(self):
        idx = make_index()
        assert locks_for_escrow_update(idx, (5,)) == [
            (("key", "i", (5,)), RangeMode.key(M.E))
        ]

    def test_ghost_cleanup_locks_key_and_upper_fence(self):
        """Physically removing a key merges two gaps: the cleaner locks
        the doomed key RangeX-X and the gap of the next key up."""
        idx = make_index(ghosts=(5,))
        plan = locks_for_ghost_cleanup(idx, (5,))
        assert plan[0] == (("key", "i", (5,)), RangeMode.RANGE_X_X)
        assert plan[1][0] == ("key", "i", (8,))
        assert plan[1][1].gap is GapMode.X
        assert gap_only(plan[1][1])

    def test_ghost_cleanup_of_top_key_fences_eof(self):
        idx = make_index(ghosts=(8,))
        plan = locks_for_ghost_cleanup(idx, (8,))
        assert plan[1][0] == ("eof", "i")
