#!/usr/bin/env python
"""Why escrow counters need logical logging: a crash-recovery walkthrough.

Two transactions increment the same aggregate-view counter concurrently
(escrow locks make that legal). One commits; the system crashes with the
other still in flight. Recovery must keep the committed increment and
discard the in-flight one.

* With **logical** (delta) logging, undo applies ``-delta`` to the current
  value — correct under any interleaving.
* With **physical** (before/after image) logging, undo restores a stale
  before image and silently erases the committed increment.

The script runs both, prints the logs, and diffs the recovered view
against the from-scratch recomputation. It also demonstrates checkpoints
bounding the redo work.

Run:  python examples/crash_recovery_demo.py
"""

from repro.api import Database, EngineConfig


def build(counter_logging):
    db = Database(
        EngineConfig(aggregate_strategy="escrow", counter_logging=counter_logging)
    )
    db.create_table("accounts", ("id", "branch", "balance"), ("id",))
    db.execute(
        "CREATE UNIQUE INDEXED VIEW branch_totals AS "
        "SELECT branch, COUNT(*) AS n_accounts, SUM(balance) AS total "
        "FROM accounts GROUP BY branch"
    )
    seed = db.begin()
    db.insert(seed, "accounts", {"id": 1, "branch": "north", "balance": 100})
    db.commit(seed)
    return db


def crash_scenario(counter_logging):
    db = build(counter_logging)
    t_open = db.begin()  # will be in flight at the crash
    t_committed = db.begin()
    db.insert(t_open, "accounts", {"id": 2, "branch": "north", "balance": 500})
    db.insert(t_committed, "accounts", {"id": 3, "branch": "north", "balance": 30})
    db.commit(t_committed)  # forces a flush: both txns' records are durable
    print(f"\n--- {counter_logging} logging ---")
    print("log records at crash:")
    for record in db.log.records():
        print("   ", record)
    report = db.simulate_crash_and_recover()
    print("recovery:", report.as_dict())
    recovered = db.read_committed("branch_totals", ("north",))
    print("recovered view row:", recovered)
    problems = db.check_view_consistency("branch_totals")
    verdict = "CORRECT" if not problems else f"CORRUPT: {problems[0]}"
    print("verdict:", verdict)
    return verdict


def checkpoint_demo():
    print("\n--- checkpoints bound redo work ---")
    db = build("logical")
    for i in range(10, 60):
        txn = db.begin()
        db.insert(txn, "accounts", {"id": i, "branch": "south", "balance": i})
        db.commit(txn)
    db.take_checkpoint()
    txn = db.begin()
    db.insert(txn, "accounts", {"id": 99, "branch": "south", "balance": 1})
    db.commit(txn)
    report = db.simulate_crash_and_recover()
    print(
        f"log holds {len(db.log)} records; recovery seeded from "
        f"{report.pages_loaded} durable page(s) and analyzed only "
        f"{report.analyzed_records} (post-checkpoint tail)"
    )
    print("south totals:", db.read_committed("branch_totals", ("south",)))
    assert db.check_all_views() == []


def main():
    logical = crash_scenario("logical")
    physical = crash_scenario("physical")
    checkpoint_demo()
    print("\nSummary: logical =", logical, "| physical =", physical)
    assert logical == "CORRECT"
    assert physical.startswith("CORRUPT")


if __name__ == "__main__":
    main()
