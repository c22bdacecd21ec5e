"""Tests for the discrete-event scheduler."""

import pytest

from repro.common import ReproError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.sim import CostModel, Scheduler
from repro.workload import BY_PRODUCT, SALES, OrderEntryWorkload
from repro.views import AggregateView


def sales_db(strategy="escrow", **kwargs):
    db = Database(EngineConfig(aggregate_strategy=strategy, **kwargs))
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


def simple_insert_program(sale_id, product="hot", amount=1):
    def program():
        yield (
            "insert",
            SALES,
            {"id": sale_id, "product": product, "customer": 1, "amount": amount},
        )

    return program


class TestSchedulerBasics:
    def test_single_session_commits(self):
        db = sales_db()
        sched = Scheduler(db)
        sched.add_session(simple_insert_program(1), txns=1)
        result = sched.run()
        assert result.committed == 1
        assert db.read_committed(BY_PRODUCT, ("hot",))["n_sales"] == 1
        assert result.ticks > 0

    def test_multiple_txns_per_session(self):
        db = sales_db()
        ids = iter(range(1, 100))

        def program():
            yield (
                "insert",
                SALES,
                {"id": next(ids), "product": "p", "customer": 1, "amount": 1},
            )

        sched = Scheduler(db)
        sched.add_session(program, txns=5)
        result = sched.run()
        assert result.committed == 5
        assert db.read_committed(BY_PRODUCT, ("p",))["n_sales"] == 5

    def test_think_advances_clock(self):
        db = sales_db()

        def program():
            yield ("think", 500)

        sched = Scheduler(db)
        sched.add_session(program, txns=1)
        result = sched.run()
        assert result.ticks >= 500

    def test_unknown_op_rejected(self):
        db = sales_db()

        def program():
            yield ("frobnicate",)

        sched = Scheduler(db)
        sched.add_session(program, txns=1)
        with pytest.raises(ReproError):
            sched.run()

    def test_max_ticks_stops_run(self):
        db = sales_db()

        def program():
            while True:
                yield ("think", 10)

        sched = Scheduler(db)
        sched.add_session(program, txns=1)
        result = sched.run(max_ticks=200)
        # the run stops within one op of the budget and never commits
        assert result.ticks >= 200
        assert result.ticks <= 220
        assert result.committed == 0

    def test_determinism(self):
        """Identical seeds and sessions produce identical results."""
        outcomes = []
        for _ in range(2):
            db = sales_db("xlock")
            wl = OrderEntryWorkload(db, n_products=5, zipf_theta=1.0, seed=3)
            wl.setup = lambda: None  # schema created above; reuse programs
            wl.db = db
            sched = Scheduler(db)
            for _i in range(4):
                sched.add_session(wl.new_sale_program(items=2), txns=10)
            result = sched.run()
            outcomes.append(
                (result.committed, result.ticks, result.aborted.as_dict())
            )
        assert outcomes[0] == outcomes[1]


class TestContention:
    def test_escrow_beats_xlock_on_hot_group(self):
        """The headline: same workload, hot group, two strategies."""
        results = {}
        for strategy in ("escrow", "xlock"):
            db = sales_db(strategy)
            ids = iter(range(1, 10000))

            def program():
                yield (
                    "insert",
                    SALES,
                    {
                        "id": next(ids),
                        "product": "hot",
                        "customer": 1,
                        "amount": 1,
                    },
                )
                yield ("think", 5)

            sched = Scheduler(db)
            for _ in range(8):
                sched.add_session(program, txns=10)
            results[strategy] = sched.run()
            assert db.check_all_views() == []
        escrow, xlock = results["escrow"], results["xlock"]
        assert escrow.committed == xlock.committed == 80
        assert escrow.lock_stats["waits"] < xlock.lock_stats["waits"]
        assert escrow.throughput() > xlock.throughput()

    @staticmethod
    def crossing_updaters(**scheduler):
        """Two sessions updating rows 1 and 2 in opposite orders, five
        programs each: they deadlock."""
        db = sales_db("xlock")
        txn = db.begin()
        db.insert(txn, SALES, {"id": 1, "product": "a", "customer": 1, "amount": 1})
        db.insert(txn, SALES, {"id": 2, "product": "b", "customer": 1, "amount": 1})
        db.commit(txn)

        def updater(first, second):
            def program():
                yield ("update", SALES, (first,), {"amount": 9})
                yield ("think", 3)
                yield ("update", SALES, (second,), {"amount": 9})

            return program

        sched = Scheduler(db, **scheduler)
        sched.add_session(updater(1, 2), txns=5)
        sched.add_session(updater(2, 1), txns=5)
        return db, sched.run()

    def test_deadlocks_resolved_and_retried(self):
        db, result = self.crossing_updaters()
        assert result.committed == 10
        assert result.aborted.get("deadlock") > 0
        assert result.retries > 0
        assert db.check_all_views() == []

    def test_without_retries_deadlock_victims_give_up(self):
        """The same contention with no retry budget: each deadlock
        victim's program is given up, which the retries above rescue."""
        db, result = self.crossing_updaters(max_retries=0)
        assert result.gave_up == result.aborted.get("deadlock") > 0
        assert result.committed == 10 - result.gave_up
        assert result.retries == 0
        assert db.check_all_views() == []

    def test_wait_times_recorded(self):
        db = sales_db("xlock")

        def writer(sale_id):
            def program():
                yield (
                    "insert",
                    SALES,
                    {"id": sale_id[0], "product": "hot", "customer": 1, "amount": 1},
                )
                sale_id[0] += 1
                yield ("think", 20)

            return program

        counter1, counter2 = [1], [1000]
        sched = Scheduler(db)
        sched.add_session(writer(counter1), txns=5)
        sched.add_session(writer(counter2), txns=5)
        result = sched.run()
        assert result.committed == 10
        assert result.wait_time.count > 0
        assert result.wait_time.mean() > 0

    def test_cleanup_interval_runs_cleaner(self):
        db = sales_db("escrow")
        ids = iter(range(1, 1000))

        def churn():
            i = next(ids)
            yield (
                "insert",
                SALES,
                {"id": i, "product": f"p{i}", "customer": 1, "amount": 1},
            )
            yield ("delete", SALES, (i,))
            yield ("think", 30)

        sched = Scheduler(db, cleanup_interval=50)
        sched.add_session(churn, txns=10)
        result = sched.run()
        assert result.committed == 10
        assert db.counters.get("cleanup.removed") > 0


class TestMixedReadersWriters:
    def test_snapshot_readers_with_writers(self):
        db = sales_db("escrow")
        ids = iter(range(1, 1000))

        def writer():
            yield (
                "insert",
                SALES,
                {"id": next(ids), "product": "hot", "customer": 1, "amount": 1},
            )

        def reader():
            yield ("read", BY_PRODUCT, ("hot",))
            yield ("think", 4)

        sched = Scheduler(db)
        sched.add_session(writer, txns=20)
        sched.add_session(reader, txns=20, isolation="snapshot")
        result = sched.run()
        assert result.committed == 40
        assert db.check_all_views() == []

    def test_serializable_scan_vs_writers(self):
        db = sales_db("escrow")
        ids = iter(range(1, 1000))

        def writer():
            yield (
                "insert",
                SALES,
                {"id": next(ids), "product": "hot", "customer": 1, "amount": 1},
            )

        def scanner():
            yield ("scan", BY_PRODUCT)

        sched = Scheduler(db)
        sched.add_session(writer, txns=10)
        sched.add_session(scanner, txns=10)
        result = sched.run()
        assert result.committed == 20
        assert db.check_all_views() == []


class TestCostModel:
    def test_costs(self):
        cm = CostModel(read=1, write=2, scan_row=1, commit=5)
        assert cm.cost_of(("insert", "t", {})) == 2
        assert cm.cost_of(("read", "t", (1,))) == 1
        assert cm.cost_of(("scan", "t"), result=[1, 2, 3]) == 3
        assert cm.cost_of(("think", 42)) == 42
