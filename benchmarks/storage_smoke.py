#!/usr/bin/env python
"""Storage-engine smoke: the paged storage stack end to end, fast.

Five legs, all on a deliberately tiny engine (a handful of buffer-pool
frames, 256-byte pages, automatic fuzzy checkpoints, 2 KiB WAL
segments) so every mechanism actually engages:

1. **pressure** — a write workload several times larger than the pool:
   evictions mid-transaction must force WAL flushes (WAL-before-write),
   and crash-recovery must seed from the durable pages and skip
   already-applied redo (``docs/STORAGE.md`` §2, §4).
2. **segments** — dump the log as a CRC-sealed segment chain, reload it
   into a *fresh process* (same schema, empty page store) and get the
   same committed state back.
3. **recycle** — after a fuzzy checkpoint, segments wholly below the
   recycle floor are deleted, and the surviving chain still recovers
   (the durable pages carry what the recycled records said).
4. **torn page** — a seeded ``page.torn_write`` corrupts write-backs;
   the CRC catches it at recovery time and the engine falls back to
   full log replay with nothing lost.
5. **lost segment** — a seeded ``wal.segment_lost`` eats one segment
   mid-chain; the reload truncates at the gap and recovers the
   consistent durable prefix.

This is the ``make storage-smoke`` / ``run_all.py`` gate for the
storage subsystem — a regression in pages, pool, segments, or
checkpointed recovery shows up here in a couple of seconds.

Run:  python benchmarks/storage_smoke.py
"""

import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.api import (
    Database,
    EngineConfig,
    FaultInjector,
)  # noqa: E402

from harness import claim, emit  # noqa: E402

N_TXNS = 40
N_PRODUCTS = 5


def build():
    db = Database(
        EngineConfig(
            aggregate_strategy="escrow",
            checkpoint_interval=6,
            buffer_pool_frames=4,
            # two or three packed entries a page, so four frames spill
            page_size=128,
            wal_segment_bytes=2048,
        )
    )
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(
        "CREATE UNIQUE INDEXED VIEW sales_by_product AS "
        "SELECT product, COUNT(*) AS n_sales, SUM(amount) AS revenue "
        "FROM sales GROUP BY product"
    )
    return db


def run_workload(db, n_txns=N_TXNS):
    for i in range(1, n_txns + 1):
        with db.session() as s:
            s.insert(
                "sales",
                {"id": i, "product": f"p{i % N_PRODUCTS}", "amount": i},
            )


def committed_tally(db):
    """The committed view rows, as a comparable dict."""
    return {
        f"p{g}": db.read_committed("sales_by_product", (f"p{g}",))
        for g in range(N_PRODUCTS)
    }


def expected_tally(n_txns=N_TXNS):
    tally = {}
    for i in range(1, n_txns + 1):
        row = tally.setdefault(f"p{i % N_PRODUCTS}", {"n": 0, "t": 0})
        row["n"] += 1
        row["t"] += i
    return tally


def leg_pressure():
    db = build()
    # 30 single-row commits (crossing several automatic fuzzy
    # checkpoints), then one 10-row transaction large enough that pages
    # dirtied at unflushed LSNs get evicted mid-transaction — the
    # write-back must force the WAL durable first
    run_workload(db, 30)
    with db.session() as s:
        for i in range(31, N_TXNS + 1):
            s.insert(
                "sales",
                {"id": i, "product": f"p{i % N_PRODUCTS}", "amount": i},
            )
    pool = db.stats()["storage"]["pool"]
    report = db.simulate_crash_and_recover()
    ok = (
        pool["evictions"] > 0
        and pool["dirty_evictions"] > 0
        and pool["forced_wal_flushes"] > 0
        and report.pages_loaded > 0
        and report.redo_skipped > 0
        and db.check_all_views() == []
        and db.check_integrity().clean
    )
    return ok, [
        ["pressure: evictions", pool["evictions"]],
        ["pressure: dirty evictions", pool["dirty_evictions"]],
        ["pressure: forced WAL flushes", pool["forced_wal_flushes"]],
        ["pressure: pages seeded", report.pages_loaded],
        ["pressure: redo skipped", report.redo_skipped],
    ]


def leg_segments(workdir):
    src = build()
    run_workload(src)
    paths = src.dump_wal_segments(workdir)
    fresh = build()  # a fresh process: same schema, empty page store
    fresh.load_wal_segments_and_recover(workdir)
    ok = (
        len(paths) >= 3
        and fresh.check_all_views() == []
        and committed_tally(fresh) == committed_tally(src)
    )
    return ok, [["segments: files in chain", len(paths)]]


def leg_recycle(workdir):
    db = build()
    run_workload(db)
    db.take_checkpoint()
    db.dump_wal_segments(workdir)
    removed = db.recycle_wal_segments(workdir)
    # same process reloads its own truncated chain: the durable pages
    # carry everything the recycled segments said
    report = db.load_wal_segments_and_recover(workdir)
    ok = (
        len(removed) >= 1
        and report.pages_loaded > 0
        and db.check_all_views() == []
        and committed_tally(db) == committed_tally(build_reference())
    )
    return ok, [["recycle: segments removed", len(removed)]]


def build_reference():
    db = build()
    run_workload(db)
    return db


def leg_torn_page():
    db = build()
    run_workload(db)
    # tear the final checkpoint's write-backs, then crash immediately:
    # the corruption is latent (a torn image is only detectable at the
    # next read) and recovery is the next reader
    injector = FaultInjector(seed=11)
    db.install_fault_injector(injector)
    injector.arm("page.torn_write", probability=1.0, times=2)
    db.take_checkpoint()
    log_len = len(db.log)  # fully flushed: every txn committed
    report = db.simulate_crash_and_recover()
    torn = db.counters.as_dict().get("storage.torn_pages", 0)
    ok = (
        torn >= 1
        # fallback: the fuzzy checkpoint is not trusted, the whole log
        # is re-analyzed and redone
        and report.analyzed_records == log_len
        and db.check_all_views() == []
        and committed_tally(db) == committed_tally(build_reference())
    )
    return ok, [
        ["torn page: pages torn", torn],
        ["torn page: records analyzed", report.analyzed_records],
    ]


def leg_lost_segment(workdir):
    src = build()
    run_workload(src)
    injector = FaultInjector(seed=12)
    src.install_fault_injector(injector)
    injector.arm("wal.segment_lost", probability=1.0, times=1, match="2")
    paths = src.dump_wal_segments(workdir)
    numbers = [int(p.name.split(".")[1]) for p in map(pathlib.Path, paths)]
    fresh = build()
    report = fresh.load_wal_segments_and_recover(workdir)
    full = committed_ids(src)
    survived = committed_ids(fresh)
    ok = (
        2 not in numbers  # the device really ate segment 2
        and fresh.check_all_views() == []
        and survived < full  # commits past the gap are gone...
        and len(survived) > 0  # ...but the durable prefix is intact
    )
    return ok, [
        ["lost segment: commits in full history", len(full)],
        ["lost segment: commits after gap truncation", len(survived)],
    ]


def committed_ids(db):
    return {
        key[0]
        for key, _ in db._indexes["sales"].scan()
    } if hasattr(db, "_indexes") else set()


def scenario():
    rows = []
    checks = []
    legs = [
        ("pressure + recovery", lambda d: leg_pressure()),
        ("segment chain round-trip", leg_segments),
        ("recycle below the floor", leg_recycle),
        ("torn page full-replay fallback", lambda d: leg_torn_page()),
        ("lost segment truncation", leg_lost_segment),
    ]
    for label, leg in legs:
        with tempfile.TemporaryDirectory() as tmp:
            ok, leg_rows = leg(pathlib.Path(tmp))
        checks.append((label, ok))
        rows.extend(leg_rows)
    emit(
        "storage_smoke",
        ["measure", "value"],
        rows,
        "storage smoke: pages, buffer pool, WAL segments, fuzzy checkpoints",
        params={
            "txns": N_TXNS,
            "buffer_pool_frames": 4,
            "page_size": 128,
            "wal_segment_bytes": 2048,
            "checkpoint_interval": 6,
        },
        claim=claim(
            "the paged storage stack survives pressure, restarts, "
            "recycling, torn pages, and lost segments",
            checks,
        ),
    )
    assert all(ok for _, ok in checks), [l for l, ok in checks if not ok]
    return checks


if __name__ == "__main__":
    scenario()
