"""Randomized concurrent simulations: the ultimate integration property.

Hypothesis draws a fleet configuration (strategy, skew, session mix,
seeds); the scheduler runs it; afterwards every view must equal the
from-scratch recomputation, the B-trees must be structurally sound, money
must not have leaked, and a crash/recovery round-trip must preserve it
all. If any interleaving the simulator can produce violates any invariant,
this is the test that finds it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Database, EngineConfig
from repro.sim import Scheduler
from repro.workload import BankingWorkload, OrderEntryWorkload

fleet_configs = st.fixed_dictionaries(
    {
        "strategy": st.sampled_from(["escrow", "xlock"]),
        "theta": st.sampled_from([0.0, 0.9, 1.4]),
        "seed": st.integers(min_value=0, max_value=10_000),
        "writers": st.integers(min_value=1, max_value=6),
        "cancellers": st.integers(min_value=0, max_value=3),
        "readers": st.integers(min_value=0, max_value=2),
        "serializable": st.booleans(),
        "maintenance": st.sampled_from(["immediate", "commit_fold"]),
        "category_view": st.booleans(),
        "join_view": st.booleans(),
    }
)


class TestRandomOrderEntryFleets:
    @settings(max_examples=25, deadline=None)
    @given(fleet_configs)
    def test_any_fleet_leaves_views_consistent(self, cfg):
        db = Database(
            EngineConfig(
                aggregate_strategy=cfg["strategy"],
                serializable=cfg["serializable"],
                maintenance_mode=cfg["maintenance"],
            )
        )
        workload = OrderEntryWorkload(
            db,
            n_products=6,
            zipf_theta=cfg["theta"],
            seed=cfg["seed"],
            with_category_view=cfg["category_view"],
            with_join_view=cfg["join_view"],
        )
        workload.setup()
        workload.preload_sales(10)
        scheduler = Scheduler(db, cleanup_interval=300)
        for _ in range(cfg["writers"]):
            scheduler.add_session(workload.new_sale_program(items=2), txns=6)
        for _ in range(cfg["cancellers"]):
            scheduler.add_session(workload.cancel_program(), txns=6)
        for _ in range(cfg["readers"]):
            scheduler.add_session(
                workload.hot_reader_program(top_k=2), txns=6,
                isolation="snapshot",
            )
        scheduler.run()
        db.run_ghost_cleanup()
        assert db.check_all_views() == []
        for name in db.index_names():
            db.index(name).check_invariants()

    @settings(max_examples=10, deadline=None)
    @given(fleet_configs)
    def test_crash_after_fleet_preserves_state(self, cfg):
        db = Database(EngineConfig(aggregate_strategy=cfg["strategy"]))
        workload = OrderEntryWorkload(
            db, n_products=5, zipf_theta=cfg["theta"], seed=cfg["seed"]
        )
        workload.setup()
        scheduler = Scheduler(db)
        for _ in range(cfg["writers"]):
            scheduler.add_session(workload.new_sale_program(items=2), txns=5)
        scheduler.run()
        before = {
            key: rec.current_row
            for key, rec in db.index("sales_by_product").scan()
            if rec.current_row["n_sales"] != 0
        }
        db.simulate_crash_and_recover()
        after = {
            key: rec.current_row
            for key, rec in db.index("sales_by_product").scan()
            if rec.current_row["n_sales"] != 0
        }
        assert before == after
        assert db.check_all_views() == []


class TestRandomBankFleets:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(["escrow", "xlock"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=8),
    )
    def test_money_conserved_in_any_fleet(self, strategy, seed, sessions):
        db = Database(EngineConfig(aggregate_strategy=strategy))
        bank = BankingWorkload(
            db, n_branches=3, accounts_per_branch=8, seed=seed
        ).setup()
        scheduler = Scheduler(db, custom_executor=bank.op_executor())
        for _ in range(sessions):
            scheduler.add_session(bank.transfer_program(think=1), txns=5)
        scheduler.run()
        bank.check_conservation()
        db.simulate_crash_and_recover()
        bank.check_conservation()
        assert db.check_all_views() == []
