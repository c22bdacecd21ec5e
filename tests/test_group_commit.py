"""Group commit: batched durability, two-phase commit points, and the
retraction / escalation story when the batched flush fails.

The protocol under test (``src/repro/wal/group_commit.py``,
``docs/ARCHITECTURE.md``): a committing transaction appends COMMIT,
becomes *commit-visible* at once (escrow folded, locks released), and
enrolls a ticket on the open commit group; one physical flush later
covers the whole group. The recurring pattern mirrors
``tests/test_faults.py``: provoke the subsystem, then assert the
engine's invariants — committed-and-durable survives a crash, retracted
means invisible and retryable, views equal recomputation.
"""

import pathlib

import pytest

from repro.common import FaultInjected, ReproError, SimulatedCrash
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.query import AggregateSpec
from repro.sim import Scheduler
from repro.txn import TxnState
from repro.wal import CommitTicket
from repro.workload import BY_PRODUCT, SALES
from repro.views import AggregateView

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


def sales_db(**kwargs):
    db = Database(EngineConfig(aggregate_strategy="escrow", **kwargs))
    db.create_table(SALES, ("id", "product", "customer", "amount"), ("id",))
    db.create_view(AggregateView(
        BY_PRODUCT,
        SALES,
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n_sales"),
            AggregateSpec.sum_of("revenue", "amount"),
        ],
    ))
    return db


def sale(i, product="ant", amount=10):
    return {"id": i, "product": product, "customer": 1, "amount": amount}


def commit_one(db, i, **sale_kwargs):
    """One transaction inserting one sale; returns its (committed) txn."""
    txn = db.begin()
    db.insert(txn, SALES, sale(i, **sale_kwargs))
    db.commit(txn)  # the primitive: commit-visible, durability pends
    return txn


def seed_durable(db, ids=(1, 2)):
    """Seed rows and force them durable so later faults can't touch them."""
    for i in ids:
        commit_one(db, i)
    db.group_commit.flush_pending()


class TestConfig:
    def test_off_by_default(self):
        db = sales_db()
        assert not db.group_commit.enabled
        txn = commit_one(db, 1)
        assert txn.commit_ticket is None
        assert db.stats()["group_commit"]["policy"] == "off"

    def test_off_string_normalizes(self):
        assert EngineConfig(group_commit="off").group_commit is None

    def test_bad_policy_rejected(self):
        with pytest.raises(ReproError):
            EngineConfig(group_commit="batchy")
        with pytest.raises(ReproError):
            EngineConfig(group_commit="size", group_commit_size=0)
        with pytest.raises(ReproError):
            EngineConfig(group_commit="latency", group_commit_latency=0)


class TestSizePolicy:
    def test_one_flush_per_full_group(self):
        db = sales_db(group_commit="size", group_commit_size=4)
        before = db.log.flush_count
        for i in range(1, 13):
            commit_one(db, i)
        assert db.log.flush_count - before == 3  # 12 commits / size 4
        gc = db.stats()["group_commit"]
        assert gc["groups_flushed"] == 3
        assert gc["durable_txns"] == 12
        assert gc["pending"] == 0
        assert gc["group_size"]["p50"] == 4
        assert db.check_all_views() == []

    def test_commit_visible_before_durable(self):
        db = sales_db(group_commit="size", group_commit_size=4)
        txn = commit_one(db, 1)
        ticket = txn.commit_ticket
        assert ticket.state == CommitTicket.PENDING
        # Commit-visible: readers see the row while durability pends.
        assert db.read_committed(SALES, (1,)) is not None
        assert db.log.flushed_lsn < ticket.commit_lsn
        assert db.ensure_durable(txn) is True
        assert ticket.state == CommitTicket.DURABLE
        assert ticket.leader  # this caller led the flush
        assert db.log.flushed_lsn >= ticket.commit_lsn

    def test_group_commit_event_emitted(self):
        db = sales_db(group_commit="size", group_commit_size=2)
        db.tracer.enable(categories=("wal",))
        commit_one(db, 1)
        leader = commit_one(db, 2)
        events = db.tracer.events(name="group_commit")
        assert len(events) == 1
        assert events[0].fields["members"] == 2
        assert events[0].fields["leader"] == leader.txn_id

    def test_checkpoint_settles_pending_group(self):
        db = sales_db(group_commit="size", group_commit_size=8)
        txn = commit_one(db, 1)
        assert txn.commit_ticket.state == CommitTicket.PENDING
        db.tracer.enable(categories=("wal",))
        db.take_checkpoint()  # an external flush; nobody led it
        assert txn.commit_ticket.state == CommitTicket.DURABLE
        assert db.group_commit.pending_count() == 0
        (event,) = db.tracer.events(name="group_commit")
        assert event.fields["leader"] is None


class TestLatencyPolicy:
    def test_scheduler_fires_group_deadline(self):
        db = sales_db(group_commit="latency", group_commit_latency=8)
        ids = iter(range(1, 10000))

        def program():
            yield ("insert", SALES, sale(next(ids)))

        sched = Scheduler(db)
        for _ in range(4):
            sched.add_session(program, txns=5)
        before = db.log.flush_count
        result = sched.run()
        assert result.committed == 20
        assert db.log.flush_count - before < 20  # batched, not per-commit
        gc = db.stats()["group_commit"]
        assert gc["durable_txns"] >= 20  # system txns may enroll too
        assert gc["pending"] == 0
        assert db.check_all_views() == []

    def test_quiescence_flushes_last_group(self):
        """A lone committer must not deadlock waiting for company: the
        scheduler's stall path forces the partial group out."""
        db = sales_db(group_commit="latency", group_commit_latency=10_000)

        def program():
            yield ("insert", SALES, sale(1))

        sched = Scheduler(db)
        sched.add_session(program, txns=1)
        result = sched.run()
        assert result.committed == 1
        assert db.group_commit.pending_count() == 0


class TestRetraction:
    def test_session_run_retries_retracted_group(self):
        db = sales_db(group_commit="size", group_commit_size=8)
        seed_durable(db)
        injector = FaultInjector(seed=0)
        db.install_fault_injector(injector)
        injector.arm("wal.group_flush", probability=1.0, times=1)
        session = db.session()
        session.run(lambda s: s.insert(SALES, sale(10)))
        # First attempt's group flush failed -> retracted -> re-run won.
        assert db.read_committed(SALES, (10,)) is not None
        assert db.read_committed(SALES, (1,)) is not None  # seeds intact
        retries = db.stats()["retries"]
        assert retries["retried"] == 1
        assert retries["gave_up"] == 0
        gc = db.stats()["group_commit"]
        assert gc["retracted_txns"] == 1
        assert db.check_all_views() == []

    def test_retraction_exhausts_retries(self):
        db = sales_db(group_commit="size", group_commit_size=8)
        seed_durable(db)
        injector = FaultInjector(seed=0)
        db.install_fault_injector(injector)
        injector.arm("wal.group_flush", probability=1.0)  # every flush
        session = db.session()
        with pytest.raises(FaultInjected):
            session.run(lambda s: s.insert(SALES, sale(10)), retries=2)
        # Retracted means invisible: the row never became committed state.
        assert db.read_committed(SALES, (10,)) is None
        assert db.stats()["retries"]["gave_up"] == 1
        assert db.stats()["group_commit"]["retracted_txns"] == 3
        injector.disarm()
        assert db.check_all_views() == []

    def test_group_holding_a_prepared_branch_escalates(self):
        """A retraction would roll the group back from the durable prefix,
        but a prepared branch's PREPARE is in it: recovery keeps the
        branch in doubt. So the group escalates to a crash, and the
        branch's handle reads LOST — undecided — as the engine has it."""
        db = sales_db(group_commit="size", group_commit_size=2)
        seed_durable(db)
        branch = db.begin()
        db.insert(branch, SALES, sale(10))
        db.participant.prepare(branch, "G1")
        db.commit(branch)  # commit-visible; its COMMIT waits for the group
        injector = db.install_fault_injector(FaultInjector(seed=0))
        injector.arm("wal.flush")
        with pytest.raises(SimulatedCrash):
            db.session().insert(SALES, sale(11))  # fills the group
        db.install_fault_injector(None)
        db.simulate_crash_and_recover()
        assert branch.commit_ticket.state == CommitTicket.LOST
        assert branch.state is not TxnState.ABORTED
        assert db.participant.in_doubt_transactions() == {
            branch.txn_id: "G1"
        }
        db.participant.resolve_in_doubt(branch.txn_id, "commit")
        assert db.read_committed(SALES, (10,)) is not None
        assert db.read_committed(SALES, (11,)) is None
        assert db.check_all_views() == []

    def test_scheduler_reruns_all_retracted_members(self):
        """A failed group flush rolls back *every* member — the waiter
        parked in durable_wait and the leader alike — and the scheduler
        re-runs both programs to completion."""
        db = sales_db(group_commit="size", group_commit_size=2)
        seed_durable(db)
        injector = FaultInjector(seed=0)
        db.install_fault_injector(injector)
        injector.arm("wal.group_flush", probability=1.0, times=1)
        ids = iter(range(10, 10000))

        def program():
            yield ("insert", SALES, sale(next(ids)))

        sched = Scheduler(db)
        sched.add_session(program, txns=1)
        sched.add_session(program, txns=1)
        result = sched.run()
        assert result.committed == 2
        aborted = result.aborted.as_dict()
        assert sum(aborted.values()) == 2  # one retraction, two members
        assert db.stats()["group_commit"]["retracted_txns"] == 2
        reader = db.begin()
        rows = db.scan(reader, SALES)
        db.commit(reader)
        assert len(rows) == 4  # 2 seeds + 2 retried inserts
        assert db.check_all_views() == []

    def test_active_bystander_escalates_to_crash(self):
        """Retraction is only sound when rollback provably reaches
        everything: an unrelated *active* transaction at flush-failure
        time forces the full-crash path (its reads could depend on the
        group's early-released writes)."""
        db = sales_db(group_commit="size", group_commit_size=2)
        seed_durable(db)
        injector = FaultInjector(seed=0)
        db.install_fault_injector(injector)
        injector.arm("wal.group_flush", probability=1.0, times=1)
        bystander = db.begin()
        db.insert(bystander, SALES, sale(50))
        commit_one(db, 10)
        with pytest.raises(SimulatedCrash):
            commit_one(db, 11)  # fills the group; flush fails
        db.simulate_crash_and_recover()
        # Nothing non-durable survived: not the group, not the bystander.
        for i in (10, 11, 50):
            assert db.read_committed(SALES, (i,)) is None
        assert db.read_committed(SALES, (1,)) is not None
        gc = db.stats()["group_commit"]
        assert gc["crash_escalations"] == 1
        assert db.check_all_views() == []

    def test_crash_loses_pending_group(self):
        db = sales_db(group_commit="size", group_commit_size=8)
        seed_durable(db)
        txn = commit_one(db, 10)
        assert txn.commit_ticket.state == CommitTicket.PENDING
        db.simulate_crash_and_recover()
        assert txn.commit_ticket.state == CommitTicket.LOST
        assert db.read_committed(SALES, (10,)) is None
        assert db.read_committed(SALES, (1,)) is not None
        assert db.stats()["group_commit"]["lost_txns"] == 1
        assert db.check_all_views() == []

    def test_torn_tail_retracts_only_the_member_it_tore_off(self):
        """The flush target is the last member's COMMIT — a winner's last
        record — so a torn tail always tears a COMMIT off: the members
        before it settle as winners and surface to nobody, and only the
        torn-off member is retracted (retryable)."""
        db = sales_db(group_commit="size", group_commit_size=2)
        seed_durable(db)
        injector = FaultInjector(seed=0)
        db.install_fault_injector(injector)
        injector.arm("wal.torn_tail", probability=1.0, times=1)
        t1 = commit_one(db, 10)
        t2 = db.begin()
        db.insert(t2, SALES, sale(11))
        with pytest.raises(FaultInjected):
            db.commit(t2)  # leads the flush; the tail tears
        assert t1.commit_ticket.state == CommitTicket.DURABLE
        assert t2.commit_ticket.state == CommitTicket.RETRACTED
        assert injector.fired["wal.torn_tail"] == 1
        assert db.stats()["group_commit"]["retracted_txns"] == 1
        db.simulate_crash_and_recover()
        assert db.read_committed(SALES, (10,)) is not None
        assert db.read_committed(SALES, (11,)) is None
        assert db.check_all_views() == []


class TestStatsContract:
    STATS_KEYS = {
        "enabled", "policy", "size_bound", "latency_bound",
        "groups_flushed", "durable_txns", "retracted_txns", "lost_txns",
        "crash_escalations", "pending", "group_size",
    }

    def test_stats_shape(self):
        gc = sales_db().stats()["group_commit"]
        assert set(gc) == self.STATS_KEYS
        assert set(sales_db(group_commit="size").stats()["group_commit"]) \
            == self.STATS_KEYS

    def test_stats_shape_documented(self):
        """docs/OBSERVABILITY.md pins the payload: every key (and the
        wal batching histogram) appears in the documented schema."""
        text = (DOCS / "OBSERVABILITY.md").read_text()
        for key in self.STATS_KEYS:
            assert f'"{key}"' in text, f"stats key {key} undocumented"
        assert '"records_per_flush"' in text
        assert "records_per_flush" in sales_db().stats()["wal"]
