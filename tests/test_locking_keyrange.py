"""Unit tests for key-range lock *planning* (which resources, which modes).

The concurrency tests exercise the plans end-to-end; these pin down the
plans themselves: fence selection, EOF handling, ghost keys as fence
posts, and the serializable/non-serializable split — and, last, that a
scan taking its key locks as runs takes the very locks, in the very
order, of one request per key.
"""

import pytest

from repro.common import KeyRange, Row, WouldWait
from repro.core import Database, EngineConfig
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
from repro.txn import LockPolicy, Transaction

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

    def test_collected_items_plan_as_a_walk_does(self):
        idx = make_index(keys=(2, 5, 8, 11), ghosts=(5,))
        for key_range in (KeyRange.between((2,), (8,)), KeyRange.all()):
            items = list(idx.scan(key_range, include_ghosts=True))
            assert locks_for_range_scan(
                idx, key_range, items=items
            ) == locks_for_range_scan(idx, key_range)


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


# ----------------------------------------------------------------------
# a scan's key locks as runs against one request per key
# ----------------------------------------------------------------------

KEYS = [2 * i for i in range(1, 31)]  # 30 rows, a free gap between each
LOCK_EVENTS = ("lock_acquire", "lock_escalate", "lock_wait")
STATS = ("requests", "covered", "immediate_grants", "waits")


def ghost_some(db):
    txn = db.begin()
    for key in (10, 12, 14):
        db.delete(txn, "t", (key,))
    db.commit(txn)
    assert db.index("t").is_ghost((12,))


def hold_the_20th_key(db):
    writer = db.begin()
    db.update(writer, "t", (KEYS[19],), {"v": -1})
    return writer


class TestScanTakesTheSameLocks:
    """``Database.scan`` takes its keys as runs (``acquire_run``); the
    reference asks for each key through ``Transaction.acquire`` — one
    ``LockManager.request`` each — because its ``acquire_run`` grants
    nothing. The lock events, the counters, the locks held and the
    outcome must be the same."""

    def scan(self, per_key, prepare, key_range, policy=LockPolicy.NOWAIT,
             rerun=False, **config):
        with pytest.MonkeyPatch.context() as patch:
            if per_key:
                patch.setattr(
                    Transaction, "acquire_run",
                    lambda txn, resources, mode: 0,
                )
            db = Database(EngineConfig(**config))
            db.create_table("t", ("id", "v"), ("id",))
            session = db.session()
            for key in KEYS:
                session.insert("t", {"id": key, "v": key})
            writer = prepare(db)
            events = []
            db.tracer.enable(categories=("lock",))
            db.tracer.listeners.append(
                lambda e: events.append((e.name, e.txn_id, e.fields))
                if e.name in LOCK_EVENTS else None
            )
            before = db.stats()["lock"]
            txn = db.begin(policy=policy)
            try:
                outcome = db.scan(txn, "t", key_range)
            except WouldWait as wait:
                outcome = ("waits for", wait.request.resource)
                if rerun:  # the writer commits, the scan runs again
                    db.commit(writer)
                    outcome = (outcome, db.scan(txn, "t", key_range))
            after = db.stats()["lock"]
            counters = {name: after[name] - before[name] for name in STATS}
            return outcome, events, counters, db.locks.locks_of(txn.txn_id)

    @pytest.mark.parametrize("case", [
        "ghosts", "empty", "eof", "not_serializable", "escalates", "waits",
        "waits_then_escalates",
    ])
    def test_runs_take_the_per_key_locks(self, case):
        rerun = case == "waits_then_escalates"
        prepare, key_range, policy, config = {
            "ghosts": (ghost_some, KeyRange.between((6,), (20,)),
                       LockPolicy.NOWAIT, {}),
            "empty": (lambda db: None, KeyRange.between((5,), (5,)),
                      LockPolicy.NOWAIT, {}),
            "eof": (lambda db: None, KeyRange.at_least((41,)),
                    LockPolicy.NOWAIT, {}),
            "not_serializable": (ghost_some, KeyRange.between((6,), (30,)),
                                 LockPolicy.NOWAIT, {"serializable": False}),
            "escalates": (lambda db: None, None, LockPolicy.NOWAIT,
                          {"escalation_threshold": 10}),
            "waits": (hold_the_20th_key, None, LockPolicy.COOPERATIVE, {}),
            # the keys granted before the wait count towards escalation
            "waits_then_escalates": (hold_the_20th_key, None,
                                     LockPolicy.COOPERATIVE,
                                     {"escalation_threshold": 25}),
        }[case]
        runs = self.scan(False, prepare, key_range, policy, rerun, **config)
        assert runs == self.scan(
            True, prepare, key_range, policy, rerun, **config
        )
        outcome, events, counters, held = runs
        assert events and counters["requests"] > 0
        names = [name for name, _, _ in events]
        assert ("lock_escalate" in names) == case.endswith("escalates")
        if case == "waits":
            assert outcome == ("waits for", ("key", "t", (KEYS[19],)))
            keys = {r for r, _ in held if r[0] == "key"}
            assert keys == {("key", "t", (key,)) for key in KEYS[:19]}
            assert counters["waits"] == 1
        if rerun:
            # 19 keys granted before the wait count, so the re-run asks
            # for 6 more (all held: covered) and escalates at the 7th
            assert counters["covered"] == 6
            assert [
                fields["key_locks"] for name, _, fields in events
                if name == "lock_escalate"
            ] == [25]
        if case == "empty":
            assert outcome == [] and [r for r, _ in held] == [
                ("key", "t", (6,)), ("table", "t"),
            ]
        if case == "eof":
            assert ("eof", "t") in [r for r, _ in held]
