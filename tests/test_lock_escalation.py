"""Multi-granularity intention locks and lock escalation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import KeyRange, LockTimeoutError
from repro.core import Database, EngineConfig
from repro.locking import LockMode
from repro.locking.escalation import EscalationPolicy, _is_read_only_mode
from repro.locking.keyrange import (
    locks_for_escrow_update,
    locks_for_insert,
    locks_for_point_read,
    locks_for_range_scan,
    table_resource,
)
from repro.locking.modes import RangeMode, covers, supremum
from repro.obs.tracer import NULL_TRACER
from repro.query import AggregateSpec
from repro.common import ReproError
from repro.views import AggregateView
from repro.views.online import lock_step


def sales_db(**kwargs):
    db = Database(EngineConfig(**kwargs))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "by_product",
        "sales",
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("total", "amount"),
        ],
    ))
    return db


def load(db, n, product="p"):
    txn = db.begin()
    for i in range(n):
        db.insert(txn, "sales", {"id": i, "product": f"{product}{i}", "amount": 1})
    db.commit(txn)


def table_intent_under(mode):
    """The table lock ``acquire_plan`` takes ahead of one key lock in
    ``mode`` — the intention lock that key lock requires."""
    db = sales_db()
    txn = db.begin()
    db.acquire_plan(txn, [(("key", "sales", (1,)), mode)])
    held = db.locks.held_mode(txn.txn_id, ("table", "sales"))
    db.abort(txn)
    return held


class TestIntentFor:
    def test_read_modes_need_is(self):
        assert table_intent_under(LockMode.S) is LockMode.IS
        assert table_intent_under(LockMode.U) is LockMode.IS
        assert table_intent_under(RangeMode.RANGE_S_S) is LockMode.IS

    def test_write_modes_need_ix(self):
        assert table_intent_under(LockMode.X) is LockMode.IX
        assert table_intent_under(LockMode.E) is LockMode.IX
        assert table_intent_under(RangeMode.RANGE_I_N) is LockMode.IX
        assert table_intent_under(RangeMode.RANGE_X_X) is LockMode.IX


class TestIntentionLocks:
    def test_key_read_takes_table_is(self):
        db = sales_db()
        load(db, 3)
        txn = db.begin()
        db.read(txn, "sales", (1,))
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.IS
        db.commit(txn)

    def test_view_maintenance_takes_table_ix_on_view(self):
        db = sales_db()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "a", "amount": 1})
        assert db.locks.held_mode(txn.txn_id, ("table", "by_product")) is LockMode.IX
        db.commit(txn)

    def test_intent_conflicts_protect_table_locks(self):
        """A transaction holding table X blocks fine-grained users."""
        db = sales_db()
        load(db, 3)
        t1 = db.begin()
        t1.acquire(("table", "sales"), LockMode.X)
        t2 = db.begin()
        with pytest.raises(LockTimeoutError):
            db.read(t2, "sales", (1,))  # IS vs X conflicts
        db.abort(t2)
        db.commit(t1)


class TestEscalation:
    def test_scan_escalates_to_table_s(self):
        db = sales_db(escalation_threshold=5)
        load(db, 20)
        txn = db.begin()
        db.scan(txn, "sales")
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.S
        assert db.escalation.escalations >= 1
        # well under 20 key locks were taken
        key_locks = [
            r for r, _ in db.locks.locks_of(txn.txn_id) if r[0] == "key"
        ]
        assert len(key_locks) <= 5
        db.commit(txn)

    def test_writes_escalate_to_table_x(self):
        db = sales_db(escalation_threshold=3)
        load(db, 10)
        txn = db.begin()
        for i in range(8):
            db.update(txn, "sales", (i,), {"amount": 2})
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.X
        db.commit(txn)
        assert db.check_all_views() == []

    def test_escalated_table_s_upgrades_on_write(self):
        db = sales_db(escalation_threshold=3)
        load(db, 10)
        txn = db.begin()
        db.scan(txn, "sales")  # escalates to table S
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.S
        db.update(txn, "sales", (1,), {"amount": 9})
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.X
        db.commit(txn)
        assert db.check_all_views() == []

    def test_escalated_lock_blocks_other_writers(self):
        db = sales_db(escalation_threshold=2)
        load(db, 10)
        t1 = db.begin()
        db.scan(t1, "sales")  # table S held
        t2 = db.begin()
        with pytest.raises(LockTimeoutError):
            db.update(t2, "sales", (9,), {"amount": 5})  # IX vs S conflicts
        db.abort(t2)
        db.commit(t1)

    def test_no_escalation_when_disabled(self):
        db = sales_db()  # threshold None
        load(db, 20)
        txn = db.begin()
        db.scan(txn, "sales")
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.IS
        assert db.escalation.escalations == 0
        db.commit(txn)

    def test_results_identical_with_and_without_escalation(self):
        def run(threshold):
            db = sales_db(escalation_threshold=threshold)
            load(db, 15)
            txn = db.begin()
            for i in range(10):
                db.update(txn, "sales", (i,), {"amount": i * 2})
            db.commit(txn)
            t2 = db.begin()
            rows = db.scan(t2, "by_product")
            db.commit(t2)
            assert db.check_all_views() == []
            return rows

        assert run(None) == run(3)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ReproError):
            EngineConfig(escalation_threshold=0)

    def test_counts_start_over_in_each_transaction(self):
        """Each transaction stays at the threshold, never past it: the
        key-lock counts of the ones before it do not carry over."""
        db = sales_db(escalation_threshold=4)
        load(db, 10)
        escalations = db.escalation.escalations  # the load's own
        for _ in range(3):
            txn = db.begin()
            for i in range(4):
                db.read(txn, "sales", (i,))
            assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.IS
            db.commit(txn)
        assert db.escalation.escalations == escalations

    def test_an_aborted_escalation_blocks_no_one(self):
        db = sales_db(escalation_threshold=2)
        load(db, 10)
        t1 = db.begin()
        db.scan(t1, "sales")  # table S held
        db.abort(t1)
        assert db.locks.locks_of(t1.txn_id) == []
        t2 = db.begin()
        db.update(t2, "sales", (9,), {"amount": 5})  # IX: nothing in its way
        db.commit(t2)
        assert db.check_all_views() == []

    def test_escalation_counts_per_index(self):
        """Locks on different indexes do not pool toward one threshold."""
        db = sales_db(escalation_threshold=4)
        load(db, 3)  # 3 products in view, 3 sales rows
        txn = db.begin()
        db.read(txn, "sales", (0,))
        db.read(txn, "sales", (1,))
        db.read(txn, "by_product", ("p0",))
        db.read(txn, "by_product", ("p1",))
        # neither index crossed the threshold of 4
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.IS
        assert db.locks.held_mode(txn.txn_id, ("table", "by_product")) is LockMode.IS
        db.commit(txn)


class TestTableLocksTakeTheKeyLocksPlace:
    def test_a_table_s_held_from_outside_the_policy_takes_no_key_locks(self):
        """An online build's ``lock_step`` holds S on the base table and X
        on the view's index: reads under it need no key lock."""
        db = sales_db()
        load(db, 5)
        txn = db.begin()
        lock_step(txn, db.catalog.view("by_product"))
        requests = db.locks.stats.requests
        assert db.read(txn, "sales", (1,)) is not None
        assert len(db.scan(txn, "sales")) == 5
        assert len(db.scan(txn, "by_product")) == 5
        assert db.locks.stats.requests == requests  # all answered by the table
        assert [r for r, _ in db.locks.locks_of(txn.txn_id)] == [
            ("table", "by_product"), ("table", "sales"),
        ]
        db.commit(txn)


# ----------------------------------------------------------------------
# the policy against the one that kept its own copy of the table modes
# ----------------------------------------------------------------------


class _IndexLockState:
    __slots__ = ("count", "read_only", "escalated_to", "intent")

    def __init__(self):
        self.count = 0
        self.read_only = True
        self.escalated_to = None
        self.intent = LockMode.NL


class StatePolicy:
    """The escalation policy as it was when it kept per-(transaction,
    index) state of its own: the key-lock count, whether the index was
    only read, the mode it escalated to and the strongest intent taken.
    ``reasks`` counts the intents it asked for although the held-lock
    table already covered them."""

    def __init__(self, threshold=None, tracer=NULL_TRACER):
        self.threshold = threshold
        self.escalations = 0
        self.tracer = tracer
        self.reasks = 0

    def acquire_plan(self, txn, plan):
        states = txn.scratch.setdefault("escalation_state", {})
        index_name = state = plan_mode = read_only = None
        position, end = 0, len(plan)
        while position < end:
            resource, mode = plan[position]
            position += 1
            if resource[0] != "key" and resource[0] != "eof":
                txn.acquire(resource, mode)
                continue
            if resource[1] != index_name:
                index_name = resource[1]
                state = states.setdefault(index_name, _IndexLockState())
            if mode is not plan_mode:
                plan_mode = mode
                read_only = _is_read_only_mode(mode)
            table = table_resource(index_name)
            if state.escalated_to is not None:
                if state.escalated_to is LockMode.X or read_only:
                    continue
                txn.acquire(table, LockMode.X)
                state.escalated_to = LockMode.X
                state.read_only = False
                self._emit(txn, index_name, LockMode.X, state.count)
                continue
            intent = LockMode.IS if read_only else LockMode.IX
            if not covers(state.intent, intent):
                held = txn.holds(table)
                self.reasks += held is not None and covers(held, intent)
                txn.acquire(table, intent)
                state.intent = supremum(state.intent, intent)
            if self.threshold is not None and state.count + 1 > self.threshold:
                needed = (
                    LockMode.S if read_only and state.read_only else LockMode.X
                )
                txn.acquire(table, needed)
                state.escalated_to = needed
                state.read_only = state.read_only and read_only
                self.escalations += 1
                self._emit(txn, index_name, needed, state.count)
                continue
            txn.acquire(resource, mode)
            state.count += 1
            state.read_only = state.read_only and read_only
            if position == end:
                continue
            stop = position
            while stop < end:
                resource, next_mode = plan[stop]
                if (
                    (next_mode is not mode and next_mode != mode)
                    or (resource[0] != "key" and resource[0] != "eof")
                    or resource[1] != index_name
                ):
                    break
                stop += 1
            if self.threshold is not None:
                stop = min(stop, position + self.threshold - state.count)
            if stop > position:
                taken = txn.acquire_run(
                    [key for key, _ in plan[position:stop]], mode
                )
                state.count += taken
                position += taken

    def _emit(self, txn, index_name, mode, key_locks):
        if self.tracer.enabled:
            self.tracer.emit(
                "lock_escalate", txn_id=txn.txn_id, index=index_name,
                mode=mode, key_locks=key_locks,
            )


TWO_INDEXES = ("a", "b")
_KEYS = st.integers(0, 21)

plan_ops = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(TWO_INDEXES), _KEYS,
              st.sampled_from([LockMode.S, LockMode.U])),
    st.tuples(st.just("insert"), st.sampled_from(TWO_INDEXES), _KEYS),
    st.tuples(st.just("escrow"), st.sampled_from(TWO_INDEXES), _KEYS),
    st.tuples(st.just("scan"), st.sampled_from(TWO_INDEXES), _KEYS,
              st.integers(0, 12)),
)


def run_plans(policy_class, threshold, ops):
    """``ops`` as lock plans of one transaction on an engine whose
    indexes ``a`` and ``b`` hold the even keys 0–18, through
    ``policy_class``; an insert takes its table's IX first, as a write
    plan does. Returns what the two policies must agree on."""
    db = Database(EngineConfig(escalation_threshold=threshold))
    for name in TWO_INDEXES:
        db.create_table(name, ("id",), ("id",))
        with db.session() as s:
            for key in range(0, 20, 2):
                s.insert(name, {"id": key})
    db.escalation = policy = policy_class(threshold, tracer=db.tracer)
    events = []
    db.tracer.enable(categories=("lock",))
    db.tracer.listeners.append(
        lambda e: events.append((e.name, e.fields))
    )
    before = db.stats()["lock"]
    txn = db.begin()
    for op in ops:
        index = db.index(op[1])
        key = (op[2],)
        if op[0] == "read":
            plan = locks_for_point_read(index, key, mode=op[3])
        elif op[0] == "insert":
            txn.acquire(table_resource(op[1]), LockMode.IX)
            plan = locks_for_insert(index, key)
        elif op[0] == "escrow":
            plan = locks_for_escrow_update(index, key)
        else:
            plan = locks_for_range_scan(
                index, KeyRange.between(key, (op[2] + op[3],))
            )
        db.acquire_plan(txn, plan)
    after = db.stats()["lock"]
    traffic = {name: after[name] - before[name] for name in after}
    return (
        events, db.locks.locks_of(txn.txn_id), policy.escalations, traffic,
        getattr(policy, "reasks", 0),
    )


class TestTheTableIsTheOnlyRecord:
    """Reading the held-lock table takes the locks, escalates and traces
    exactly as the policy that kept its own copy of each index's table
    mode; it only skips the intents that copy asked for again although
    the table already covered them."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
        st.lists(plan_ops, min_size=1, max_size=12),
    )
    def test_same_locks_as_the_policy_with_its_own_state(self, threshold, ops):
        events, held, escalations, traffic, _ = run_plans(
            EscalationPolicy, threshold, ops
        )
        old = run_plans(StatePolicy, threshold, ops)
        assert (events, held, escalations) == old[:3]
        reasks = old[4]
        assert traffic["requests"] == old[3]["requests"]
        assert traffic["covered"] == old[3]["covered"] - reasks
        assert {
            name: count for name, count in traffic.items() if name != "covered"
        } == {
            name: count for name, count in old[3].items() if name != "covered"
        }

