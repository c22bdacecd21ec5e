"""The faultable message transport under the sharded engine.

The contract under test (``docs/ARCHITECTURE.md`` §9, ``docs/
ROBUSTNESS.md`` "lossy network"): every facade → partition interaction
rides :class:`repro.dist.net.Network`, which is at-least-once — the
``net.*`` sites drop, duplicate, reorder, and delay messages — while the
endpoint dedup tables make the *effects* exactly-once. The failure
detector turns missed heartbeats into suspicion and healed networks into
re-admission; a coordinator crash at any protocol step is survivable via
the durable decision log plus partition in-doubt reports. The recurring
oracles: commit-or-abort atomicity per global transaction, and
conservation after settlement.
"""

import pytest

from repro.common import (
    PartitionUnavailableError,
    TransactionAborted,
    TransactionStateError,
)
from repro.core import EngineConfig
from repro.dist import (
    ShardedDatabase,
    TwoPhaseCoordinator,
    check_conservation,
)
from repro.faults import FaultInjector
from repro.obs import NET_STATS_FIELDS
from repro.query import AggregateSpec
from repro.views import AggregateView

BOUNDS = (250, 500, 750)  # 4 partitions
ACCOUNTS = "accounts"
TOTALS = "totals"

#: the five transport fault sites
NET_SITES = (
    "net.request_lost",
    "net.reply_lost",
    "net.duplicate",
    "net.reorder",
    "net.delay",
)

#: one match string per 2PC wire step: prepare send / vote reply at each
#: participant, decide send / ack at each participant (the fault-site
#: detail is ``<kind>:<partition>``).
STEPS = ("prepare:0", "prepare:2", "decide:0", "decide:2")


def fleet(boundaries=BOUNDS, **config_kwargs):
    db = ShardedDatabase(
        boundaries, EngineConfig(aggregate_strategy="escrow", **config_kwargs)
    )
    db.create_table(ACCOUNTS, ("id", "region", "amount"), ("id",))
    db.create_view(AggregateView(
        TOTALS,
        ACCOUNTS,
        ("region",),
        [AggregateSpec.count(), AggregateSpec.sum_of("total", "amount")],
    ))
    return db


def deposit(db, key, region, amount):
    """One single-partition committed insert."""
    txn = db.begin()
    db.insert(txn, ACCOUNTS, {"id": key, "region": region, "amount": amount})
    assert db.commit(txn) == "commit"
    return txn


def move(db, src, dst, region, amount):
    """A cross-partition pair: +amount at dst, -amount at src — the
    conservation-friendly global transaction."""
    txn = db.begin()
    db.insert(txn, ACCOUNTS, {"id": dst, "region": region, "amount": amount})
    db.insert(txn, ACCOUNTS, {"id": src, "region": region, "amount": -amount})
    return txn


def settle(db, txns=()):
    """Drive every outstanding branch to its final outcome: resolve
    in-doubt globals against the durable decision log, recover down
    partitions, then hand the coordinator off so leftover prepared
    branches are swept from the in-doubt reports."""
    for txn in txns:
        if txn.state == "in_doubt":
            db.resolve(txn)
    for pid in list(db.down_partitions()):
        db.recover_partition(pid)
    db.recover_coordinator()


def assert_atomic(db, src, dst, amount, outcome):
    """Both rows of a move, or neither — and exactly once."""
    debit = db.read_committed(ACCOUNTS, (src,))
    credit = db.read_committed(ACCOUNTS, (dst,))
    assert (debit is None) == (credit is None)
    if outcome == "commit":
        assert credit is not None and credit["amount"] == amount
        assert debit["amount"] == -amount
    else:
        assert credit is None and debit is None


class TestTransportBasics:
    def test_net_stats_pinned_shape(self):
        db = fleet()
        deposit(db, 10, "s", 1)
        db.heartbeat_round()
        stats = db.stats()["net"]
        assert set(stats) == NET_STATS_FIELDS
        assert stats["heartbeats"] == 4

    def test_healthy_run_is_transparent(self):
        db = fleet()
        deposit(db, 10, "s", 3)
        txn = move(db, 20, 600, "s", 5)
        assert db.commit(txn) == "commit"
        stats = db.stats()["net"]
        assert stats["messages"] > 0
        assert stats["delivered"] == stats["messages"]
        for key in ("request_lost", "reply_lost", "duplicates", "reordered",
                    "delayed", "retries", "gave_up", "dedup_absorbed"):
            assert stats[key] == 0, key
        assert check_conservation(db) == []

    def test_all_dml_rides_the_transport(self):
        db = fleet()
        deposit(db, 600, "r", 7)
        txn = db.begin()
        assert db.read(txn, ACCOUNTS, (600,))["amount"] == 7
        db.update(txn, ACCOUNTS, (600,), {"amount": 9})
        db.commit(txn)
        txn = db.begin()
        db.delete(txn, ACCOUNTS, (600,))
        db.commit(txn)
        assert db.read_committed(ACCOUNTS, (600,)) is None
        # 2 ops + read + update + delete + 3 commit messages, all counted.
        assert db.stats()["net"]["messages"] >= 7


class TestMessageFaultMatrix:
    """Each ``net.*`` site armed once at each 2PC wire step: the retry /
    dedup machinery absorbs a single-shot fault — the move still commits
    exactly once."""

    @pytest.mark.parametrize("site", NET_SITES)
    @pytest.mark.parametrize("step", STEPS)
    def test_single_fault_is_absorbed(self, site, step):
        db = fleet()
        inj = FaultInjector(seed=7)
        db.install_fault_injector(inj)
        inj.arm(site, match=step, times=1)
        txn = move(db, 10, 600, "m", 5)
        try:
            outcome = db.commit(txn)
        except TransactionAborted:
            outcome = "abort"
        inj.disarm()
        settle(db, [txn])
        assert outcome == "commit"
        assert_atomic(db, 10, 600, 5, outcome)
        folded = db.read_folded(TOTALS, ("m",))
        assert folded["row_count"] == 2 and folded["total"] == 0
        assert db.in_doubt_total() == 0
        assert check_conservation(db) == []

    @pytest.mark.parametrize("site", NET_SITES)
    def test_single_fault_on_op_and_fast_path_commit(self, site):
        db = fleet()
        inj = FaultInjector(seed=7)
        db.install_fault_injector(inj)
        inj.arm(site, match="op:2", times=1)
        inj.arm(site, match="commit:2", times=1)
        deposit(db, 600, "f", 4)
        inj.disarm()
        assert db.read_committed(ACCOUNTS, (600,))["amount"] == 4
        assert check_conservation(db) == []

    def test_persistent_prepare_loss_aborts_cleanly(self):
        """Every prepare to one participant lost: the transport gives
        up, the vote counts as no, and presumed-abort machinery squares
        the fleet — nothing half-commits."""
        db = fleet()
        db.tracer.enable()
        inj = FaultInjector(seed=5)
        db.install_fault_injector(inj)
        inj.arm("net.request_lost", match="prepare:2")
        txn = move(db, 10, 600, "p", 5)
        with pytest.raises(TransactionAborted):
            db.commit(txn)
        inj.disarm()
        assert db.coordinator.decided["abort"] == 1
        assert db.stats()["net"]["gave_up"] == 1
        assert db.stats()["net"]["retries"] == db.net.max_attempts - 1
        assert_atomic(db, 10, 600, 5, "abort")
        assert db.in_doubt_total() == 0
        assert check_conservation(db) == []
        votes = db.tracer.events(name="2pc_prepare")
        assert [e.fields["vote"] for e in votes] == ["yes", "no"]

    def test_persistent_decide_loss_settles_on_coordinator_handoff(self):
        """Every decide to one participant lost: the decision is durable
        and the client outcome stands; the prepared branch waits until a
        coordinator hand-off probes it and replays the decision."""
        db = fleet()
        inj = FaultInjector(seed=5)
        db.install_fault_injector(inj)
        inj.arm("net.request_lost", match="decide:2")
        txn = move(db, 10, 600, "d", 6)
        assert db.commit(txn) == "commit"
        inj.disarm()
        assert db.stats()["net"]["gave_up"] == 1
        # The debit side applied; the credit branch is still prepared.
        assert db.read_committed(ACCOUNTS, (10,))["amount"] == -6
        settle(db, [txn])
        assert_atomic(db, 10, 600, 6, "commit")
        assert db.in_doubt_total() == 0
        assert check_conservation(db) == []

    def test_persistent_decide_ack_loss_commits_exactly_once(self):
        """The decide is delivered and applied on the first attempt;
        every ack is lost, so the sender retransmits until it gives up —
        and the endpoint's reply cache absorbs each retransmission
        instead of committing twice."""
        db = fleet()
        inj = FaultInjector(seed=5)
        db.install_fault_injector(inj)
        inj.arm("net.reply_lost", match="decide:2")
        txn = move(db, 10, 600, "a", 6)
        assert db.commit(txn) == "commit"
        inj.disarm()
        stats = db.stats()["net"]
        assert stats["gave_up"] == 1
        assert stats["dedup_absorbed"] == db.net.max_attempts - 1
        assert db.read_committed(ACCOUNTS, (600,))["amount"] == 6
        folded = db.read_folded(TOTALS, ("a",))
        assert folded["row_count"] == 2 and folded["total"] == 0
        assert db.in_doubt_total() == 0
        assert check_conservation(db) == []


class TestExactlyOnce:
    def test_duplicates_are_all_absorbed(self):
        db = fleet()
        inj = FaultInjector(seed=4)
        db.install_fault_injector(inj)
        inj.arm("net.duplicate")  # duplicate every message on the wire
        txn = move(db, 10, 600, "x", 6)
        assert db.commit(txn) == "commit"
        inj.disarm()
        stats = db.stats()["net"]
        assert stats["duplicates"] > 0
        assert stats["dedup_absorbed"] == stats["duplicates"]
        assert db.read_committed(ACCOUNTS, (600,))["amount"] == 6
        folded = db.read_folded(TOTALS, ("x",))
        assert folded["row_count"] == 2 and folded["total"] == 0
        assert check_conservation(db) == []

    def test_reordered_stale_delivery_is_idempotent(self):
        """A parked decide is overtaken by its own retransmission and
        delivered late — same msg_id, absorbed by the reply cache, the
        commit does not apply twice."""
        db = fleet()
        inj = FaultInjector(seed=4)
        db.install_fault_injector(inj)
        inj.arm("net.reorder", match="decide:0", times=1)
        txn = move(db, 10, 600, "o", 8)
        assert db.commit(txn) == "commit"
        inj.disarm()
        stats = db.stats()["net"]
        assert stats["reordered"] == 1
        assert stats["retries"] >= 1
        assert stats["dedup_absorbed"] >= 1
        assert db.read_committed(ACCOUNTS, (10,))["amount"] == -8
        assert check_conservation(db) == []

    def test_duplicate_prepare_reanswers_the_binding_vote(self):
        db = fleet()
        inj = FaultInjector(seed=4)
        db.install_fault_injector(inj)
        inj.arm("net.reply_lost", match="prepare:2", times=1)
        txn = move(db, 10, 600, "v", 2)
        assert db.commit(txn) == "commit"
        inj.disarm()
        # The lost vote reply forced a retransmission; the endpoint
        # re-answered the original vote rather than preparing twice.
        assert db.stats()["net"]["retries"] == 1
        assert db.stats()["net"]["dedup_absorbed"] == 1
        assert check_conservation(db) == []


class TestRetryBackoff:
    def test_retries_emit_events_with_growing_backoff(self):
        db = fleet()
        db.tracer.enable()
        inj = FaultInjector(seed=2)
        db.install_fault_injector(inj)
        inj.arm("net.request_lost", match="prepare:2", times=2)
        before = db.clock.now()
        txn = move(db, 10, 600, "r", 3)
        assert db.commit(txn) == "commit"
        inj.disarm()
        retries = db.tracer.events(name="net_retry")
        assert [e.fields["attempt"] for e in retries] == [1, 2]
        assert all(e.fields["kind"] == "prepare" for e in retries)
        assert all(e.fields["partition"] == 2 for e in retries)
        assert retries[1].fields["backoff"] > retries[0].fields["backoff"]
        assert db.clock.now() - before >= sum(
            e.fields["backoff"] for e in retries
        )
        assert db.stats()["net"]["retries"] == 2

    def test_delay_advances_the_clock_without_losing_anything(self):
        db = fleet()
        inj = FaultInjector(seed=2)
        db.install_fault_injector(inj)
        inj.arm("net.delay", match="prepare:2", delay=30)
        before = db.clock.now()
        txn = move(db, 10, 600, "t", 3)
        assert db.commit(txn) == "commit"
        inj.disarm()
        assert db.clock.now() - before >= 30
        stats = db.stats()["net"]
        assert stats["delayed"] >= 1
        assert stats["retries"] == 0 and stats["gave_up"] == 0

    def test_gave_up_is_a_retryable_denial_not_a_down_partition(self):
        db = fleet()
        db.tracer.enable()
        inj = FaultInjector(seed=2)
        db.install_fault_injector(inj)
        inj.arm("net.request_lost", match="op:2")
        txn = db.begin()
        with pytest.raises(PartitionUnavailableError):
            db.insert(txn, ACCOUNTS, {"id": 600, "region": "g", "amount": 1})
        gave = db.tracer.events(name="net_gave_up")[-1]
        assert gave.fields["kind"] == "op"
        assert gave.fields["partition"] == 2
        assert gave.fields["attempts"] == db.net.max_attempts
        inj.disarm()
        db.abort(txn)
        # An unreachable partition is not a down partition: nothing was
        # observed crashing, and traffic flows again once the net heals.
        assert db.down_partitions() == []
        deposit(db, 600, "g", 1)
        assert check_conservation(db) == []


class TestFailureDetector:
    def test_missed_heartbeats_suspect_then_heal(self):
        db = fleet()
        db.tracer.enable()
        inj = FaultInjector(seed=3)
        db.install_fault_injector(inj)
        inj.arm("net.request_lost", match="ping:2")
        for _ in range(db.detector.threshold - 1):
            assert db.heartbeat_round() == []
        assert db.heartbeat_round() == [2]
        assert db.detector.status(2) == "suspect"
        suspected = db.tracer.events(name="partition_suspected")[-1]
        assert suspected.fields["partition"] == 2
        assert suspected.fields["missed"] == db.detector.threshold
        # Suspect = down for routing.
        txn = db.begin()
        with pytest.raises(PartitionUnavailableError):
            db.insert(txn, ACCOUNTS, {"id": 600, "region": "h", "amount": 1})
        db.abort(txn)
        # The network heals; the next heartbeat re-admits the suspect.
        inj.disarm()
        assert db.heartbeat_round() == []
        readmitted = db.tracer.events(name="partition_readmitted")[-1]
        assert readmitted.fields["partition"] == 2
        assert readmitted.fields["via"] == "heartbeat"
        deposit(db, 600, "h", 1)
        assert db.stats()["net"]["suspected"] == 1
        assert db.stats()["net"]["readmitted"] == 1

    def test_confirmed_crash_skips_heartbeats_until_recovery(self):
        db = fleet()
        db.tracer.enable()
        deposit(db, 600, "c", 2)
        db.crash_partition(2)
        assert db.detector.status(2) == "down"
        before = db.stats()["net"]["heartbeats"]
        db.heartbeat_round()
        # Only the three live partitions were pinged.
        assert db.stats()["net"]["heartbeats"] - before == 3
        assert db.down_partitions() == [2]
        db.recover_partition(2)
        readmitted = db.tracer.events(name="partition_readmitted")[-1]
        assert readmitted.fields["partition"] == 2
        assert readmitted.fields["via"] == "recovery"
        assert db.down_partitions() == []
        assert db.read_committed(ACCOUNTS, (600,))["amount"] == 2

    def test_every_op_checks_the_detector_not_just_branch_creation(self):
        """Regression: a branch opened while its partition was up must
        fail fast once the partition goes down — never proceed against
        a dead engine."""
        db = fleet()
        txn = db.begin()
        db.insert(txn, ACCOUNTS, {"id": 600, "region": "z", "amount": 1})
        db.crash_partition(2)
        with pytest.raises(PartitionUnavailableError):
            db.update(txn, ACCOUNTS, (600,), {"amount": 2})
        with pytest.raises(PartitionUnavailableError):
            db.read(txn, ACCOUNTS, (600,))
        with pytest.raises(PartitionUnavailableError):
            db.delete(txn, ACCOUNTS, (600,))
        with pytest.raises(PartitionUnavailableError):
            db.insert(txn, ACCOUNTS, {"id": 601, "region": "z", "amount": 1})
        # The single-branch commit aborts cleanly too.
        with pytest.raises(TransactionAborted):
            db.commit(txn)
        assert txn.state == "aborted"
        db.recover_partition(2)
        assert db.read_committed(ACCOUNTS, (600,)) is None
        assert check_conservation(db) == []


class TestCoordinatorCrashRecovery:
    def test_decide_is_idempotent_per_gid(self):
        """Regression: deciding the same gid twice must not append a
        second DecisionRecord or double-count the outcome."""
        coordinator = TwoPhaseCoordinator()
        gid = coordinator.new_gid()
        assert coordinator.decide(gid, "commit", [0, 2]) is True
        records = coordinator.stats()["log_records"]
        assert coordinator.decide(gid, "commit", [0, 2]) is True
        assert coordinator.stats()["log_records"] == records
        assert coordinator.decided == {"commit": 1, "abort": 0}

    def test_conflicting_decision_is_refused(self):
        coordinator = TwoPhaseCoordinator()
        gid = coordinator.new_gid()
        coordinator.decide(gid, "commit", [0, 2])
        with pytest.raises(TransactionStateError):
            coordinator.decide(gid, "abort", [0, 2])

    def test_crashed_coordinator_refuses_to_decide(self):
        coordinator = TwoPhaseCoordinator()
        coordinator.crash()
        with pytest.raises(TransactionStateError):
            coordinator.decide("G1", "commit", [0])

    def test_recover_rebuilds_from_the_durable_prefix(self):
        old = TwoPhaseCoordinator()
        g1 = old.new_gid()
        old.decide(g1, "commit", [0, 2])
        old.crash()
        fresh = TwoPhaseCoordinator.recover(old)
        assert not fresh.crashed
        assert fresh.epoch == 1
        assert fresh.decided == {"commit": 1, "abort": 0}
        assert fresh.durable_decision(g1) == "commit"
        # Epoch-qualified gids can never collide with pre-crash ones.
        assert fresh.new_gid() == "G1.1"

    @pytest.mark.parametrize("step", [
        "prepare_send:0",  # before any vote was collected
        "prepare_send:2",  # one branch already durably prepared
        "G1",              # at the decision point (record never durable)
        "decide_send:0",   # decision durable, no branch notified
        "decide_send:2",   # decision durable, one branch notified
    ])
    def test_crash_at_every_protocol_step(self, step):
        db = fleet()
        inj = FaultInjector(seed=11)
        db.install_fault_injector(inj)
        inj.arm("dist.coordinator_crash", match=step, times=1)
        txn = move(db, 10, 600, "c", 7)
        try:
            outcome = db.commit(txn)
        except TransactionAborted:
            outcome = "abort"
        assert db.coordinator.crashed
        inj.disarm()
        # Survivor traffic: begin() hands off to a fresh coordinator,
        # which sweeps leftover prepared branches from in-doubt reports.
        survivor = deposit(db, 20, "s", 1)
        assert not db.coordinator.crashed
        assert db.coordinator.epoch == 1
        assert survivor.gid == "G1.1"
        assert db.stats()["dist"]["coordinator_recoveries"] == 1
        if txn.state == "in_doubt":
            outcome = db.resolve(txn)
        # A decision that reached the durable log stands; anything less
        # resolves by presumed abort.
        expected = "commit" if step.startswith("decide_send") else "abort"
        assert outcome == expected
        assert_atomic(db, 10, 600, 7, outcome)
        assert db.in_doubt_total() == 0
        assert check_conservation(db) == []
        # Never more than one decision record per gid in the log.
        assert db.coordinator.stats()["log_records"] <= 1

    def test_decision_survives_crash_but_undecided_presumes_abort(self):
        """The two halves of presumed abort, side by side: a durable
        decision outlives the coordinator; a lost one aborts."""
        db = fleet()
        inj = FaultInjector(seed=11)
        db.install_fault_injector(inj)
        # First move decides durably, then the coordinator dies before
        # phase 2 reaches anyone.
        inj.arm("dist.coordinator_crash", match="decide_send:0", times=1)
        committed = move(db, 10, 600, "k", 9)
        assert db.commit(committed) == "commit"
        inj.disarm()
        db.recover_coordinator()
        assert db.coordinator.durable_decision(committed.gid) == "commit"
        assert_atomic(db, 10, 600, 9, "commit")
        # Second move: the coordinator dies at the decision point — the
        # record never reaches the durable prefix.
        inj.arm("dist.coordinator_crash", match=".1", times=1)
        doomed = move(db, 20, 700, "k", 9)
        assert db.commit(doomed) == "in_doubt"
        inj.disarm()
        assert db.resolve(doomed) == "abort"
        assert db.coordinator.durable_decision(doomed.gid) is None
        assert db.stats()["dist"]["presumed_aborts"] >= 1
        assert_atomic(db, 20, 700, 9, "abort")
        assert db.in_doubt_total() == 0
        assert check_conservation(db) == []


class TestLossyNetworkChaos:
    """Seeded probabilistic chaos over all five net.* sites at once: the
    workload degrades to aborts at worst, settlement restores atomicity
    and conservation, and the whole schedule replays bit-for-bit."""

    PAIRS = [(10 + i, 600 + i) for i in range(8)]

    def _run(self, seed):
        db = fleet()
        db.tracer.enable()
        inj = FaultInjector(seed=seed)
        db.install_fault_injector(inj)
        inj.arm("net.request_lost", probability=0.15)
        inj.arm("net.reply_lost", probability=0.10)
        inj.arm("net.duplicate", probability=0.20)
        inj.arm("net.reorder", probability=0.10)
        inj.arm("net.delay", probability=0.10, delay=3)
        outcomes = []
        for src, dst in self.PAIRS:
            txn = db.begin()
            try:
                db.insert(txn, ACCOUNTS,
                          {"id": dst, "region": "l", "amount": 5})
                db.insert(txn, ACCOUNTS,
                          {"id": src, "region": "l", "amount": -5})
                outcome = db.commit(txn)
            except TransactionAborted:
                if txn.state == "active":
                    db.abort(txn, reason="net chaos")
                outcome = "abort"
            outcomes.append((src, dst, outcome, txn))
        inj.disarm()
        settle(db, [txn for _, _, _, txn in outcomes])
        trace = [
            (e.seq, e.ts, e.name, e.txn_id, e.fields)
            for e in db.tracer.events()
        ]
        return db, outcomes, trace

    def test_lossy_network_settles_atomically(self):
        db, outcomes, _ = self._run(seed=17)
        stats = db.stats()["net"]
        # The schedule actually exercised the fault machinery.
        assert stats["request_lost"] > 0
        assert stats["duplicates"] > 0
        assert stats["retries"] > 0
        assert stats["dedup_absorbed"] > 0
        for src, dst, outcome, _ in outcomes:
            assert outcome in ("commit", "abort")
            assert_atomic(db, src, dst, 5, outcome)
        assert db.in_doubt_total() == 0
        assert check_conservation(db) == []

    def test_same_seed_same_trace(self):
        _, outcomes_a, trace_a = self._run(seed=17)
        _, outcomes_b, trace_b = self._run(seed=17)
        assert [o[:3] for o in outcomes_a] == [o[:3] for o in outcomes_b]
        assert trace_a == trace_b
