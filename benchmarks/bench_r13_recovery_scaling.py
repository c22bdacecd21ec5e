"""R13 (table, ablation): recovery time vs log length, and what
checkpoints buy.

Grow the committed history, crash, recover — three ways:

* ``no ckpt`` — plain log, recovery replays everything;
* ``one ckpt`` — a single ``take_checkpoint()`` at 90% of the history;
* ``auto ckpt`` — a checkpoint every
  ``EngineConfig(checkpoint_interval=…)`` commits.

There is one kind of checkpoint: it records only the ATT + dirty-page
table, dirty pages are written back, and recovery seeds from the
durable page images (``docs/STORAGE.md`` §4).

Expected shape: recovery work (records analyzed/redone, wall time)
grows linearly with log length without checkpoints; one checkpoint
caps it at the post-checkpoint tail; the automatic leg is **flat** —
with a fixed working set the dirty-page table is bounded, so
analysis+redo stay roughly constant while the log grows 16x.
"""

import time

from repro.api import Database, EngineConfig, OrderEntryWorkload

from harness import claim, emit

HISTORY_SIZES = (100, 400, 1600)
AUTO_INTERVAL = 30
MODES = ("none", "once", "auto")
MODE_LABELS = {"none": "no ckpt", "once": "one ckpt", "auto": "auto ckpt"}


def build_history(n_txns, mode):
    config = {"aggregate_strategy": "escrow"}
    if mode == "auto":
        config["checkpoint_interval"] = AUTO_INTERVAL
    db = Database(EngineConfig(**config))
    workload = OrderEntryWorkload(db, n_products=20, zipf_theta=0.5, seed=4)
    db.create_table("sales", ("id", "product", "customer", "amount"), ("id",))
    db.create_table("products", ("product", "name", "category"), ("product",))
    workload.db = db
    db.create_view(
        "CREATE UNIQUE INDEXED VIEW sales_by_product AS "
        "SELECT product, COUNT(*) AS n_sales, SUM(amount) AS revenue "
        "FROM sales GROUP BY product"
    )
    checkpoint_at = int(n_txns * 0.9)
    for i in range(n_txns):
        txn = db.begin()
        db.insert(txn, "sales", workload.next_sale_values())
        db.commit(txn)
        if mode == "once" and i == checkpoint_at:
            db.take_checkpoint()
    db.log.flush()
    return db


def recover_timed(db):
    start = time.perf_counter()
    report = db.simulate_crash_and_recover()
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert db.check_all_views() == []
    return report, elapsed_ms


def scenario():
    rows = []
    outcomes = {}
    for n in HISTORY_SIZES:
        for mode in MODES:
            db = build_history(n, mode)
            report, elapsed_ms = recover_timed(db)
            outcomes[(n, mode)] = (report, elapsed_ms)
            rows.append(
                [
                    f"{n} txns ({MODE_LABELS[mode]})",
                    len(db.log),
                    report.analyzed_records,
                    report.redo_count,
                    report.redo_skipped,
                    report.pages_loaded,
                    round(elapsed_ms, 2),
                ]
            )
    checks = judge(outcomes)
    emit(
        "r13_recovery_scaling",
        ["history", "log records", "analyzed", "redone", "redo skipped",
         "pages seeded", "recovery ms"],
        rows,
        "R13 (ablation): recovery cost vs history length, with/without checkpoints",
        params={
            "history_sizes": list(HISTORY_SIZES),
            "auto_checkpoint_interval": AUTO_INTERVAL,
        },
        claim=claim(
            "a checkpoint caps recovery; regular checkpoints flatten it",
            checks,
        ),
    )
    return outcomes


def judge(outcomes):
    """The qualitative claims as (label, bool) pairs — shared between the
    pytest assertion and the emitted result document."""
    small_plain = outcomes[(HISTORY_SIZES[0], "none")][0]
    large_plain = outcomes[(HISTORY_SIZES[-1], "none")][0]
    large_once = outcomes[(HISTORY_SIZES[-1], "once")][0]
    small_auto = outcomes[(HISTORY_SIZES[0], "auto")][0]
    large_auto = outcomes[(HISTORY_SIZES[-1], "auto")][0]
    return [
        (
            "without checkpoints, redo work grows with history",
            large_plain.redo_count > 8 * small_plain.redo_count,
        ),
        (
            "one checkpoint caps analysis at the tail",
            large_once.analyzed_records < 0.25 * large_plain.analyzed_records,
        ),
        (
            "one checkpoint caps redo at the tail",
            large_once.redo_count < 0.25 * large_plain.redo_count,
        ),
        (
            "checkpointed recovery seeds from durable pages",
            large_once.pages_loaded > 0 and large_auto.pages_loaded > 0,
        ),
        (
            "auto-checkpoint analysis+redo is flat across 16x log growth",
            large_auto.analyzed_records + large_auto.redo_count
            <= 2 * (small_auto.analyzed_records + small_auto.redo_count),
        ),
        (
            "auto-checkpoint redo is bounded by the DPT, not the log",
            large_auto.redo_count < 0.05 * large_plain.redo_count,
        ),
    ]


def test_r13_checkpoints_cap_recovery_work(benchmark):
    outcomes = benchmark.pedantic(scenario, rounds=1, iterations=1)
    for label, ok in judge(outcomes):
        assert ok, label
