"""Tests for the lock manager: grants, queues, conversion, deadlocks."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import (
    DeadlockError,
    LockTimeoutError,
    LogicalClock,
    TransactionStateError,
    WouldWait,
)
from repro.locking import (
    GapMode,
    LockManager,
    LockMode,
    RangeMode,
    RequestStatus,
)
from repro.txn.transaction import LockPolicy, Transaction, TxnState

M = LockMode
RES = ("key", "idx", (1,))
RES2 = ("key", "idx", (2,))
TAB = ("table", "t")


@pytest.fixture
def lm():
    return LockManager()


class TestBasicGrants:
    def test_first_request_granted(self, lm):
        r = lm.request(1, RES, M.X)
        assert r.status is RequestStatus.GRANTED
        assert lm.held_mode(1, RES) is M.X

    def test_compatible_shares(self, lm):
        assert lm.request(1, RES, M.S).status is RequestStatus.GRANTED
        assert lm.request(2, RES, M.S).status is RequestStatus.GRANTED
        assert lm.holders(RES) == {1: M.S, 2: M.S}

    def test_incompatible_waits(self, lm):
        lm.request(1, RES, M.X)
        r = lm.request(2, RES, M.S)
        assert r.status is RequestStatus.WAITING
        assert lm.waiting_for(2) == RES

    def test_escrow_holders_share(self, lm):
        for txn in range(1, 6):
            assert lm.request(txn, RES, M.E).status is RequestStatus.GRANTED
        assert len(lm.holders(RES)) == 5

    def test_escrow_blocks_reader(self, lm):
        lm.request(1, RES, M.E)
        assert lm.request(2, RES, M.S).status is RequestStatus.WAITING

    def test_reacquire_held_mode_is_noop(self, lm):
        lm.request(1, RES, M.S)
        r = lm.request(1, RES, M.S)
        assert r.status is RequestStatus.GRANTED
        assert lm.stats.requests == 2

    def test_weaker_request_covered_by_held(self, lm):
        lm.request(1, RES, M.X)
        r = lm.request(1, RES, M.S)
        assert r.status is RequestStatus.GRANTED
        assert lm.held_mode(1, RES) is M.X

    def test_range_mode_grants(self, lm):
        assert lm.request(1, RES, RangeMode.RANGE_I_N).status is RequestStatus.GRANTED
        assert (
            lm.request(2, RES, RangeMode.key(M.X)).status is RequestStatus.GRANTED
        )
        assert lm.request(3, RES, RangeMode.RANGE_S_S).status is RequestStatus.WAITING


class TestRelease:
    def test_release_grants_waiter(self, lm):
        lm.request(1, RES, M.X)
        r2 = lm.request(2, RES, M.S)
        granted = lm.release(1, RES)
        assert granted == [2]
        assert r2.status is RequestStatus.GRANTED
        assert lm.held_mode(2, RES) is M.S

    def test_release_all(self, lm):
        lm.request(1, RES, M.X)
        lm.request(1, RES2, M.S)
        lm.request(1, TAB, M.IX)
        lm.release_all(1)
        assert lm.held_mode(1, RES) is None
        assert lm.held_mode(1, RES2) is None
        assert lm.locks_of(1) == []

    def test_release_unheld_is_noop(self, lm):
        assert lm.release(1, RES) == []

    def test_fifo_grant_order(self, lm):
        lm.request(1, RES, M.X)
        r2 = lm.request(2, RES, M.X)
        r3 = lm.request(3, RES, M.X)
        lm.release_all(1)
        assert r2.status is RequestStatus.GRANTED
        assert r3.status is RequestStatus.WAITING
        lm.release_all(2)
        assert r3.status is RequestStatus.GRANTED

    def test_multiple_compatible_granted_together(self, lm):
        lm.request(1, RES, M.X)
        r2 = lm.request(2, RES, M.S)
        r3 = lm.request(3, RES, M.S)
        lm.release_all(1)
        assert r2.status is RequestStatus.GRANTED
        assert r3.status is RequestStatus.GRANTED

    def test_writer_not_starved(self, lm):
        """Readers arriving after a waiting writer queue behind it."""
        lm.request(1, RES, M.S)
        w = lm.request(2, RES, M.X)
        r3 = lm.request(3, RES, M.S)
        assert w.status is RequestStatus.WAITING
        assert r3.status is RequestStatus.WAITING  # queued behind the writer
        lm.release_all(1)
        assert w.status is RequestStatus.GRANTED
        assert r3.status is RequestStatus.WAITING
        lm.release_all(2)
        assert r3.status is RequestStatus.GRANTED

    def test_cancel_wait(self, lm):
        lm.request(1, RES, M.X)
        r2 = lm.request(2, RES, M.S)
        lm.cancel_wait(2)
        assert r2.status is RequestStatus.DENIED
        assert lm.waiting_for(2) is None
        lm.release_all(1)
        assert lm.held_mode(2, RES) is None


class TestConversion:
    def test_upgrade_s_to_x_alone(self, lm):
        lm.request(1, RES, M.S)
        r = lm.request(1, RES, M.X)
        assert r.status is RequestStatus.GRANTED
        assert lm.held_mode(1, RES) is M.X

    def test_upgrade_blocked_by_other_reader(self, lm):
        lm.request(1, RES, M.S)
        lm.request(2, RES, M.S)
        r = lm.request(1, RES, M.X)
        assert r.status is RequestStatus.WAITING
        lm.release_all(2)
        assert r.status is RequestStatus.GRANTED
        assert lm.held_mode(1, RES) is M.X

    def test_conversion_jumps_queue(self, lm):
        lm.request(1, RES, M.S)
        lm.request(2, RES, M.S)
        lm.request(3, RES, M.X)  # new waiter
        conv = lm.request(1, RES, M.X)  # conversion should be ahead of txn 3
        assert conv.status is RequestStatus.WAITING
        lm.release_all(2)
        assert conv.status is RequestStatus.GRANTED
        assert lm.held_mode(1, RES) is M.X

    def test_escrow_to_x_conversion(self, lm):
        lm.request(1, RES, M.E)
        lm.request(2, RES, M.E)
        conv = lm.request(1, RES, M.S)  # read exact => E ∨ S = X
        assert conv.status is RequestStatus.WAITING
        lm.release_all(2)
        assert conv.status is RequestStatus.GRANTED
        assert lm.held_mode(1, RES) is M.X

    def test_only_one_waiting_request_per_txn(self, lm):
        lm.request(1, RES, M.X)
        lm.request(2, RES, M.S)
        with pytest.raises(TransactionStateError):
            lm.request(2, RES2, M.S)


class TestDeadlockDetection:
    def test_two_txn_cycle(self, lm):
        lm.request(1, RES, M.X)
        lm.request(2, RES2, M.X)
        r1 = lm.request(1, RES2, M.X)
        assert r1.status is RequestStatus.WAITING
        r2 = lm.request(2, RES, M.X)
        # txn 2 is younger -> victim; its request is denied immediately
        assert r2.status is RequestStatus.DENIED
        assert r2.deny_error is not None
        assert set(r2.deny_error.cycle) == {1, 2}
        assert lm.stats.deadlocks == 1

    def test_victim_is_youngest(self, lm):
        lm.request(5, RES, M.X)
        lm.request(3, RES2, M.X)
        lm.request(5, RES2, M.X)  # 5 waits on 3
        r = lm.request(3, RES, M.X)  # 3 waits on 5 -> cycle {3,5}, victim 5
        assert r.status is RequestStatus.WAITING  # 3 survives
        # 5's waiting request was denied
        assert lm.waiting_for(5) is None
        assert lm.stats.deadlocks == 1

    def test_victim_abort_unblocks_survivor(self, lm):
        lm.request(5, RES, M.X)
        lm.request(3, RES2, M.X)
        r5 = lm.request(5, RES2, M.X)
        r3 = lm.request(3, RES, M.X)
        assert r5.status is RequestStatus.DENIED
        lm.release_all(5)  # victim aborts
        assert r3.status is RequestStatus.GRANTED

    def test_three_txn_cycle(self, lm):
        resources = [("r", i) for i in range(3)]
        for t in range(3):
            lm.request(t + 1, resources[t], M.X)
        lm.request(1, resources[1], M.X)
        lm.request(2, resources[2], M.X)
        r = lm.request(3, resources[0], M.X)
        assert r.status is RequestStatus.DENIED  # txn 3 youngest on cycle
        assert set(r.deny_error.cycle) == {1, 2, 3}

    def test_no_false_positive(self, lm):
        lm.request(1, RES, M.X)
        lm.request(2, RES2, M.X)
        r = lm.request(2, RES, M.S)
        assert r.status is RequestStatus.WAITING
        assert lm.stats.deadlocks == 0

    def test_escrow_avoids_deadlock_entirely(self, lm):
        """Hot-row updates under E never create waits, hence no cycles."""
        lm.request(1, RES, M.E)
        lm.request(2, RES2, M.E)
        assert lm.request(1, RES2, M.E).status is RequestStatus.GRANTED
        assert lm.request(2, RES, M.E).status is RequestStatus.GRANTED
        assert lm.stats.deadlocks == 0
        assert lm.stats.waits == 0


class TestVictimSelectionDeterminism:
    """Victim choice and reported cycle are pure functions of the request
    history: the same scenario on a fresh manager yields the identical
    victim and the identical ``deny_error.cycle`` tuple, for both the
    requester-denied and the queued-victim paths."""

    @staticmethod
    def _requester_is_victim(lm):
        """txn 2 (youngest on the cycle) closes the cycle itself: its own
        request is DENIED on the spot."""
        lm.request(1, RES, M.X)
        lm.request(2, RES2, M.X)
        assert lm.request(1, RES2, M.X).status is RequestStatus.WAITING
        return lm.request(2, RES, M.X)

    @staticmethod
    def _parked_txn_is_victim(lm):
        """txn 1 (oldest) closes the cycle; the victim is txn 2, already
        parked on an older request, which is denied while txn 1 keeps
        waiting. Returns (requester's request, victim's request)."""
        lm.request(2, RES, M.X)
        lm.request(1, RES2, M.X)
        parked = lm.request(2, RES2, M.X)
        assert parked.status is RequestStatus.WAITING
        return lm.request(1, RES, M.X), parked

    def test_requester_denied_path(self):
        for _ in range(2):  # identical on a fresh manager each time
            lm = LockManager()
            r = self._requester_is_victim(lm)
            assert r.status is RequestStatus.DENIED
            assert r.deny_error.txn_id == 2
            # cycles are reported starting at the victim
            assert tuple(r.deny_error.cycle) == (2, 1)
            assert lm.stats.deadlocks == 1
            assert lm.waiting_for(1) == RES2  # the survivor still waits

    def test_queued_victim_path(self):
        for _ in range(2):
            lm = LockManager()
            requester, parked = self._parked_txn_is_victim(lm)
            # The requester survives (it is older) and keeps waiting...
            assert requester.status is RequestStatus.WAITING
            assert lm.waiting_for(1) == RES
            # ...while the parked victim's request was denied in place.
            assert parked.status is RequestStatus.DENIED
            assert parked.deny_error.txn_id == 2
            assert tuple(parked.deny_error.cycle) == (2, 1)
            assert lm.waiting_for(2) is None
            assert lm.stats.deadlocks == 1

    def test_three_txn_cycle_victim_and_cycle_stable(self):
        cycles = []
        for _ in range(2):
            lm = LockManager()
            resources = [("r", i) for i in range(3)]
            for t in range(3):
                lm.request(t + 1, resources[t], M.X)
            lm.request(1, resources[1], M.X)
            lm.request(2, resources[2], M.X)
            r = lm.request(3, resources[0], M.X)
            assert r.status is RequestStatus.DENIED
            assert r.deny_error.txn_id == 3
            cycles.append(tuple(r.deny_error.cycle))
        assert cycles[0] == cycles[1]
        assert set(cycles[0]) == {1, 2, 3}


class TestLockWaitTimeouts:
    """`lock_wait_timeout` enforcement via poll()/next_deadline()."""

    @staticmethod
    def timed(timeout=10):
        clock = LogicalClock()
        return clock, LockManager(clock=clock, timeout=timeout)

    def test_waiter_denied_after_deadline(self):
        clock, lm = self.timed(timeout=10)
        lm.request(1, RES, M.X)
        r = lm.request(2, RES, M.S)
        assert r.status is RequestStatus.WAITING
        assert lm.next_deadline() == 10
        clock.advance_to(9)
        assert lm.poll(clock.now()) == []
        assert r.status is RequestStatus.WAITING  # not yet due
        clock.advance_to(10)
        lm.poll(clock.now())
        assert r.status is RequestStatus.DENIED
        assert isinstance(r.deny_error, LockTimeoutError)
        assert r.deny_error.resource == RES
        assert r.resolved_at == 10
        assert lm.stats.timeouts == 1
        assert lm.waiting_for(2) is None

    def test_deadline_accounts_wait_start(self):
        clock, lm = self.timed(timeout=10)
        lm.request(1, RES, M.X)
        clock.advance_to(7)
        lm.request(2, RES, M.S)
        assert lm.next_deadline() == 17

    def test_timeout_denial_grants_queue_successor(self):
        clock, lm = self.timed(timeout=5)
        lm.request(1, RES, M.S)
        w = lm.request(2, RES, M.X)  # waits behind the reader
        r3 = lm.request(3, RES, M.S)  # queued behind the writer (fairness)
        clock.advance_to(5)
        granted = lm.poll(clock.now())
        # Both deadlines fire at 5, but denying the writer makes the
        # reader behind it grantable, and a grant wins the tie with the
        # reader's own simultaneous expiry.
        assert w.status is RequestStatus.DENIED
        assert r3.status is RequestStatus.GRANTED
        assert r3.resolved_at == 5
        assert granted == [3]
        assert lm.stats.timeouts == 1

    def test_no_timeout_without_configuration(self):
        clock = LogicalClock()
        lm = LockManager(clock=clock)  # no timeout configured
        lm.request(1, RES, M.X)
        r = lm.request(2, RES, M.S)
        clock.advance_to(10_000)
        assert lm.next_deadline() is None
        assert lm.poll(clock.now()) == []
        assert r.status is RequestStatus.WAITING


class TestIntrospection:
    def test_locks_of(self, lm):
        lm.request(1, RES, M.S)
        lm.request(1, TAB, M.IS)
        locks = lm.locks_of(1)
        assert (RES, M.S) in locks
        assert (TAB, M.IS) in locks

    def test_waiters(self, lm):
        lm.request(1, RES, M.X)
        lm.request(2, RES, M.S)
        assert [w.txn_id for w in lm.waiters(RES)] == [2]

    def test_stats_counters(self, lm):
        lm.request(1, RES, M.X)
        lm.request(2, RES, M.S)
        stats = lm.stats.as_dict()
        assert stats["requests"] == 2
        assert stats["immediate_grants"] == 1
        assert stats["waits"] == 1

    def test_queue_cleanup(self, lm):
        lm.request(1, RES, M.X)
        lm.release_all(1)
        assert lm.active_resources() == []


class TestHeldLockTable:
    """What a transaction holds is one table, written by the manager and
    read by the transaction (``Transaction.acquire`` / ``holds``)."""

    def txn(self, lm, txn_id):
        return Transaction(txn_id, lm, policy=LockPolicy.COOPERATIVE)

    def test_covered_rerequest_never_reaches_the_queues(self, lm):
        t = self.txn(lm, 1)
        t.acquire(TAB, M.IX)
        t.acquire(TAB, M.IS)
        t.acquire(TAB, M.IX)
        assert lm.stats.requests == 1
        assert lm.stats.covered == 2
        assert t.holds(TAB) is M.IX

    def test_plain_mode_does_not_cover_a_range_mode(self, lm):
        t = self.txn(lm, 1)
        t.acquire(RES, M.X)
        t.acquire(RES, RangeMode.key(M.S))  # converts to Range(NL,X)
        assert lm.stats.requests == 2
        assert t.holds(RES) == RangeMode.key(M.X)

    def test_queue_granted_conversion_shows_in_the_table(self, lm):
        reader, upgrader = self.txn(lm, 1), self.txn(lm, 2)
        reader.acquire(RES, M.S)
        upgrader.acquire(RES, M.S)
        with pytest.raises(WouldWait) as parked:
            upgrader.acquire(RES, M.X)
        assert upgrader.holds(RES) is M.S
        lm.release_all(1)
        assert parked.value.request.status is RequestStatus.GRANTED
        assert upgrader.holds(RES) is M.X
        before = lm.stats.requests
        upgrader.acquire(RES, M.X)  # the re-run after the wait
        assert lm.stats.requests == before

    def test_release_all_empties_the_transactions_table(self, lm):
        t = self.txn(lm, 1)
        t.acquire(TAB, M.IX)
        t.acquire(RES, M.X)
        lm.release_all(1)
        assert t.holds(TAB) is None and t.holds(RES) is None
        assert lm.locks_of(1) == []

    def test_release_wakes_waiters_in_acquisition_order(self, lm):
        resources = [("key", "idx", (name,)) for name in "qwertyuiop"]
        for i, resource in enumerate(resources):
            lm.request(1, resource, M.X)
            lm.request(10 + i, resource, M.S)
        assert lm.release_all(1) == [10 + i for i in range(len(resources))]

    def test_single_release_leaves_the_table(self, lm):
        t = self.txn(lm, 1)
        t.acquire(RES, M.S)
        t.acquire(RES2, M.S)
        lm.release(1, RES)
        assert t.holds(RES) is None
        assert lm.locks_of(1) == [(RES2, M.S)]
        t.acquire(RES, M.S)
        assert lm.stats.covered == 0


# ----------------------------------------------------------------------
# differential: Transaction.acquire (held-table fast path) and
# Transaction.acquire_run (a run's no-wait prefix) against
# LockManager.request called for every resource
# ----------------------------------------------------------------------

EOF_RES = ("eof", "idx")
RESOURCES = (TAB, RES, RES2, EOF_RES)
MODES = (
    M.IS, M.IX, M.S, M.SIX, M.U, M.X, M.E,
    RangeMode.RANGE_S_S, RangeMode.RANGE_I_N, RangeMode.RANGE_X_X,
    RangeMode.key(M.S), RangeMode.key(M.U), RangeMode.key(M.X),
    RangeMode.key(M.E),
    RangeMode(GapMode.S, M.NL), RangeMode(GapMode.X, M.NL),
)

acquire_step = st.tuples(
    st.just("acquire"), st.integers(0, 3),
    st.sampled_from(RESOURCES), st.sampled_from(MODES),
)
run_step = st.tuples(
    st.just("run"), st.integers(0, 3),
    st.lists(st.sampled_from(RESOURCES), min_size=1, max_size=4),
    st.sampled_from(MODES),
)
finish_step = st.tuples(st.sampled_from(["commit", "abort"]), st.integers(0, 3))
# mostly acquisitions, so transactions live long enough to convert, queue
# up behind each other and deadlock
steps = st.lists(
    st.one_of(*[acquire_step] * 4, *[run_step] * 2, finish_step),
    min_size=8, max_size=80,
)


def take_run(txn, resources, mode):
    """A run the way the escalation policy takes one: a resource through
    ``acquire``, the no-wait prefix after it through ``acquire_run``, and
    the resource past that prefix through ``acquire`` again."""
    taken = 0
    while taken < len(resources):
        txn.acquire(resources[taken], mode)
        taken += 1
        taken += txn.acquire_run(resources[taken:], mode)


def request_run(locks, txn_id, resources, mode):
    """The same run as one ``request`` per resource, up to the first that
    is not granted; returns the last request."""
    for resource in resources:
        request = locks.request(txn_id, resource, mode)
        if request.status is not RequestStatus.GRANTED:
            break
    return request


def outcome_of(request):
    if request.status is RequestStatus.DENIED:
        error = request.deny_error
        return ("denied", error.txn_id, error.cycle)
    return (request.status.value,)


class TestAcquireMatchesRequest:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4), steps)
    @example(2, [  # two-resource deadlock: the younger requester is denied
        ("acquire", 0, RES, M.S), ("acquire", 1, RES2, M.S),
        ("acquire", 0, RES2, M.X), ("acquire", 1, RES, M.X),
        ("abort", 1), ("acquire", 0, RES2, M.X),
    ])
    @example(3, [  # conversion deadlock whose victim is parked, not asking
        ("acquire", 2, RES, M.S), ("acquire", 0, RES, M.S),
        ("acquire", 2, RES, M.X), ("acquire", 0, RES, M.X),
        ("abort", 2), ("acquire", 0, RES, M.S),
    ])
    @example(2, [  # a run that meets a conflict in its middle, waits there
        ("acquire", 1, RES2, M.X), ("run", 0, [TAB, RES, RES2, EOF_RES], M.S),
        ("commit", 1), ("run", 0, [TAB, RES, RES2, EOF_RES], M.S),
    ])
    @example(2, [  # a run that deadlocks in its middle: the younger is denied
        ("acquire", 0, RES, M.X), ("run", 1, [EOF_RES, RES2, RES], M.S),
        ("acquire", 0, RES2, M.X), ("abort", 1),
    ])
    def test_same_grants_waits_and_victims(self, n_txns, schedule):
        fast, plain = LockManager(), LockManager()
        slots = list(range(1, n_txns + 1))  # slot -> current txn id
        txns = {
            i: Transaction(i, fast, policy=LockPolicy.COOPERATIVE)
            for i in slots
        }
        parked = {}  # txn id -> (fast request, plain request)
        next_id = n_txns + 1
        for step in schedule:
            slot = step[1] % n_txns
            txn_id = slots[slot]
            txn = txns[txn_id]
            if step[0] in ("acquire", "run"):
                if plain.waiting_for(txn_id) is not None:
                    continue  # a parked transaction does nothing
                _, _, resource, mode = step
                if step[0] == "run":
                    reference = request_run(plain, txn_id, resource, mode)
                else:
                    reference = plain.request(txn_id, resource, mode)
                try:
                    if step[0] == "run":
                        take_run(txn, resource, mode)
                    else:
                        txn.acquire(resource, mode)
                    outcome = ("granted",)
                except WouldWait as wait:
                    outcome = ("waiting",)
                    parked[txn_id] = (wait.request, reference)
                except DeadlockError as victim:
                    outcome = ("denied", victim.txn_id, victim.cycle)
                assert outcome == outcome_of(reference)
            else:
                txn.state = (
                    TxnState.COMMITTED if step[0] == "commit"
                    else TxnState.ABORTED
                )
                assert fast.release_all(txn_id) == plain.release_all(txn_id)
                parked.pop(txn_id, None)
                slots[slot] = next_id
                txns[next_id] = Transaction(
                    next_id, fast, policy=LockPolicy.COOPERATIVE
                )
                next_id += 1
            # every outstanding wait resolved the same way on both sides
            for ours, theirs in parked.values():
                assert outcome_of(ours) == outcome_of(theirs)
            for resource in RESOURCES:
                assert fast.holders(resource) == plain.holders(resource)
                assert [
                    (w.txn_id, w.mode, w.is_conversion)
                    for w in fast.waiters(resource)
                ] == [
                    (w.txn_id, w.mode, w.is_conversion)
                    for w in plain.waiters(resource)
                ]
            for txn_id in slots:
                assert fast.locks_of(txn_id) == plain.locks_of(txn_id)
                assert fast.waiting_for(txn_id) == plain.waiting_for(txn_id)
                for resource in RESOURCES:
                    held = plain.held_mode(txn_id, resource)
                    assert fast.held_mode(txn_id, resource) == held
                    # a conversion granted from the queue is already in
                    # the transaction's table: no second request needed
                    assert txns[txn_id].holds(resource) == held
            assert sorted(map(repr, fast.active_resources())) == sorted(
                map(repr, plain.active_resources())
            )
        ours, theirs = fast.stats.as_dict(), plain.stats.as_dict()
        assert ours["requests"] + ours["covered"] == theirs["requests"]
        assert (
            ours["immediate_grants"] + ours["covered"]
            == theirs["immediate_grants"]
        )
        for counter in ("waits", "conversions", "deadlocks", "denials"):
            assert ours[counter] == theirs[counter]
