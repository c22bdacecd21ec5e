"""Crash-at-every-LSN sweep: recovery correctness at *every* possible
crash point.

A fixed workload runs to completion with the log fully flushed. Then,
for every prefix of the log, a fresh database recovers from exactly that
prefix and must satisfy the consistency oracle: every view equals the
recomputation over the recovered base tables, and committed-transaction
durability is exact (a transaction is recovered iff its COMMIT record is
inside the prefix). This is the brute-force version of the targeted
recovery tests — if any single log boundary were unsafe, this finds it.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import LockTimeoutError, SimulatedCrash
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.query import AggregateSpec, col_ge
from repro.wal import RecordType
from repro.wal.segments import load_segments
from repro.views import (
    AggregateView,
    JoinAggregateView,
    JoinView,
    ProjectionView,
)


def build_schema(strategy):
    db = Database(EngineConfig(aggregate_strategy=strategy))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v",
        "sales",
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("t", "amount"),
        ],
    ))
    return db


def run_workload(db):
    """A scenario touching every mechanism: inserts, hot-group escrow,
    deletes to zero, revival, update moving groups, an abort, cleanup."""
    with db.session() as s:
        s.insert("sales", {"id": 1, "product": "a", "amount": 10})
        s.insert("sales", {"id": 2, "product": "a", "amount": 20})
        s.insert("sales", {"id": 3, "product": "b", "amount": 5})
    t_abort = db.begin()
    db.insert(t_abort, "sales", {"id": 4, "product": "a", "amount": 99})
    db.abort(t_abort)
    with db.session() as s:
        s.delete("sales", (3,))  # empties group b
    with db.session() as s:
        s.insert("sales", {"id": 5, "product": "b", "amount": 7})  # revives
    with db.session() as s:
        s.update("sales", (1,), {"product": "b"})  # moves groups
    db.run_ghost_cleanup()
    db.log.flush()


def committed_ids_in_prefix(log, limit_lsn):
    return {
        r.txn_id
        for r in log.records()
        if r.type is RecordType.COMMIT and r.lsn <= limit_lsn
    }


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
def test_recovery_correct_at_every_crash_point(strategy, tmp_path):
    reference = build_schema(strategy)
    run_workload(reference)
    reference.dump_wal_segments(tmp_path)
    full_log = load_segments(tmp_path)
    tail = full_log.tail_lsn()
    # sanity: the scenario produced a meaningful log
    assert tail > 20  # row changes, CLRs and decisions only: no BEGIN, no END after COMMIT

    for crash_lsn in range(0, tail + 1):
        db = build_schema(strategy)
        db.log = load_segments(tmp_path)
        db.log.flushed_lsn = crash_lsn
        db.log.crash()  # discard everything past the crash point
        report = db._rebuild_from_log()
        # durability is exact: winners = commits inside the prefix
        expected_winners = committed_ids_in_prefix(full_log, crash_lsn)
        assert report.winners == expected_winners, f"lsn={crash_lsn}"
        # every view matches the recomputation over recovered base data
        problems = db.check_all_views()
        assert problems == [], f"lsn={crash_lsn}: {problems[:2]}"
        # and the recovered engine still works
        with db.session() as s:
            s.insert("sales", {"id": 900, "product": "z", "amount": 1})
        assert db.read_committed("v", ("z",))["n"] == 1


def build_fuzzy_schema(strategy, btree_order=32):
    """Same schema, but on a paged engine small enough to churn: auto
    fuzzy checkpoints every 2 commits, a 4-leaf dirty table, 256-byte
    pages."""
    db = Database(
        EngineConfig(
            aggregate_strategy=strategy,
            checkpoint_interval=2,
            buffer_pool_frames=4,
            page_size=256,
            btree_order=btree_order,
        )
    )
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v",
        "sales",
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("t", "amount"),
        ],
    ))
    return db


def base_table_in_prefix(log, limit_lsn):
    """Oracle: the committed contents of the ``sales`` base index after
    recovering from exactly this log prefix — winners' data records
    applied in LSN order, losers absent entirely."""
    winners = committed_ids_in_prefix(log, limit_lsn)
    rows = {}
    for r in log.records():
        if r.lsn > limit_lsn:
            break
        if r.txn_id not in winners or getattr(r, "index_name", None) != "sales":
            continue
        if r.type is RecordType.INSERT:
            rows[r.key] = dict(r.row.as_dict())
        elif r.type is RecordType.UPDATE:
            rows[r.key] = dict(r.after.as_dict())
        elif r.type is RecordType.GHOST:
            # a ghost is the *visible* removal; the later CLEANUP only
            # reclaims the slot, which a ghost-excluding scan never sees
            rows.pop(r.key, None)
    return rows


def fuzzy_sweep(strategy, tmp_path, workload, btree_order=32):
    """Crash-at-every-LSN sweep harness over the paged engine: at every
    crash boundary the surviving device state is the log prefix PLUS
    every page image written back (or dropped) before that point
    (reconstructed from a ``PageStore.write_listener`` timeline). Asserts
    full consistency at each boundary; returns ``(reference_db,
    seeded_points, redo_skipped_total)`` so callers can check the
    machinery engaged."""
    reference = build_fuzzy_schema(strategy, btree_order)
    timeline = []  # (log tail at write time, page_id, image or None)
    reference._store.write_listener = lambda pid, data: timeline.append(
        (reference.log.tail_lsn(), pid, data)
    )
    workload(reference)
    reference.take_checkpoint()
    reference.log.flush()
    reference.dump_wal_segments(tmp_path)
    full_log = load_segments(tmp_path)
    tail = full_log.tail_lsn()
    checkpoints = [
        r.lsn for r in full_log.records()
        if r.type is RecordType.CHECKPOINT
    ]
    assert checkpoints, "the workload must cross at least one fuzzy checkpoint"
    assert timeline, "the workload must write pages back"

    seeded_points = 0
    redo_skipped_total = 0
    for crash_lsn in range(0, tail + 1):
        db = build_fuzzy_schema(strategy, btree_order)
        db.log = load_segments(tmp_path)
        db.log.flushed_lsn = crash_lsn
        db.log.crash()
        # reconstruct the device: last image per page written (or its
        # drop) while the log tail was still inside the surviving prefix
        images = {}
        for written_at, page_id, data in timeline:
            if written_at > crash_lsn:
                break
            if data is None:
                images.pop(page_id, None)
            else:
                images[page_id] = data
        db._store.restore(images)
        report = db._rebuild_from_log()
        # analysis starts at the last checkpoint inside the prefix, so
        # the report's winners are the commits after that point
        ckpt_lsn = max((c for c in checkpoints if c <= crash_lsn), default=0)
        expected_winners = {
            t
            for t in committed_ids_in_prefix(full_log, crash_lsn)
            if t not in committed_ids_in_prefix(full_log, ckpt_lsn)
        }
        assert report.winners == expected_winners, f"lsn={crash_lsn}"
        # data-level durability is exact across the *whole* prefix,
        # checkpoint or not: the recovered base table equals the oracle
        recovered = {
            key: dict(rec.current_row.as_dict())
            for key, rec in db._indexes["sales"].scan()
        }
        assert recovered == base_table_in_prefix(full_log, crash_lsn), (
            f"lsn={crash_lsn}"
        )
        problems = db.check_all_views()
        assert problems == [], f"lsn={crash_lsn}: {problems[:2]}"
        assert db.check_integrity().clean, f"lsn={crash_lsn}"
        seeded_points += report.pages_loaded > 0
        redo_skipped_total += report.redo_skipped
        with db.session() as s:
            s.insert("sales", {"id": 900, "product": "z", "amount": 1})
        assert db.read_committed("v", ("z",))["n"] == 1
    return reference, seeded_points, redo_skipped_total


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
def test_recovery_correct_at_every_crash_point_across_fuzzy_checkpoints(
    strategy, tmp_path
):
    """The full sweep again, but across *fuzzy* checkpoints on a paged
    engine. The page-seeded, redo-gated recovery must be exactly as
    correct as pure log replay — and the sweep must prove the gate
    actually engages (pages seeded, redo skipped) at some boundaries.

    With a checkpoint in the prefix, analysis starts there, so
    ``report.winners`` only names commits *after* it; pre-checkpoint
    durability is asserted at the data level against the replay oracle
    (:func:`base_table_in_prefix`)."""
    _, seeded_points, redo_skipped_total = fuzzy_sweep(
        strategy, tmp_path, run_workload
    )
    # the sweep exercised the ARIES machinery, not just full replay
    assert seeded_points > 0
    assert redo_skipped_total > 0


def run_split_merge_workload(db):
    """Order-4 trees under a 4-leaf cap: inserts split the sales leaves
    and, spread over eight groups, the view's; deletes and the ghost
    cleaner then empty leaves, which borrow and merge. Every committed
    fact must survive recovery whichever images the entries that moved
    reached before the crash."""
    for first in range(1, 17, 4):
        with db.session() as s:
            for i in range(first, first + 4):
                s.insert("sales", {"id": i, "product": f"p{i % 8}", "amount": i})
    for first in range(2, 17, 5):
        with db.session() as s:
            for i in range(first, min(first + 4, 17)):
                s.delete("sales", (i,))
    db.run_ghost_cleanup()
    with db.session() as s:
        s.insert("sales", {"id": 40, "product": "p3", "amount": 40})
        s.update("sales", (1,), {"product": "p9"})
    db.run_ghost_cleanup()
    db.log.flush()


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
def test_recovery_correct_across_leaf_splits_and_merges(strategy, tmp_path):
    """Crash sweep across structure changes, which log nothing: at every
    boundary, whatever images the timeline says were durable, the
    write-back order (a receiver before its giver, a freed leaf's image
    dropped after its receiver's write) keeps every committed key."""
    changes = {"moved": 0, "freed": 0}

    def counting(name, verb):
        def counted(*args):
            changes[name] += 1
            return verb(*args)
        return counted

    def workload(db):
        for name in changes:
            setattr(db._pool, name, counting(name, getattr(db._pool, name)))
        run_split_merge_workload(db)

    _, seeded_points, _ = fuzzy_sweep(strategy, tmp_path, workload, 4)
    assert changes["moved"] > 0 and changes["freed"] > 0
    assert seeded_points > 0



RECOVERY_SITES = ("recovery.analysis", "recovery.redo", "recovery.undo")


def crashed_paged_engine(strategy):
    """The storm's starting point: the churned paged engine with a
    durable loser, stopped dead. Rebuilt from scratch for every crash
    site — the workload is deterministic. Order-4 trees, so the loser
    dirties more leaves than the table holds and some are written."""
    db = build_fuzzy_schema(strategy, btree_order=4)
    run_workload(db)
    loser = db.begin()
    for i in range(50, 58):  # more redo and undo than the table has room
        db.insert(loser, "sales", {"id": i, "product": "abcd"[i % 4], "amount": i})
    db.update(loser, "sales", (2,), {"product": "b"})
    db.log.flush()  # the loser's records are durable, its COMMIT is not
    return db


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
def test_recovery_never_writes_the_page_store(strategy):
    """From the crash until recovery's final rebuild the durable pages
    are byte-identical — at every record boundary of every phase a crash
    can interrupt. Recovery only reads the store, so a re-entered
    recovery sees exactly what the first attempt saw."""
    reference = crashed_paged_engine(strategy)
    expected = reference.simulate_crash_and_recover()
    assert expected.pages_loaded and expected.redo_skipped and expected.losers
    for site in RECOVERY_SITES:
        boundary = 0
        while True:
            db = crashed_paged_engine(strategy)
            store, before = db._store, db._store.snapshot()
            injector = db.install_fault_injector(FaultInjector())
            injector.arm(site, after=boundary, times=1)
            try:
                report = db.simulate_crash_and_recover()
            except SimulatedCrash:
                label = f"{site}@{boundary}"
                assert db._store is store, label
                assert store.snapshot() == before, label
                report = db.simulate_crash_and_recover()
                # the second attempt read the same pages: same verdicts
                assert report.pages_loaded == expected.pages_loaded, label
                assert report.losers == expected.losers, label
                assert db.check_all_views() == [], label
                assert db.check_integrity().clean, label
                boundary += 1
                continue
            assert boundary > 0, f"{site} never evaluated"
            assert db._store is not store  # the final rebuild replaced it
            break


# ----------------------------------------------------------------------
# views and secondary indexes created over rows that already exist
# ----------------------------------------------------------------------

ON = [("product", "product")]
COUNT_SUM = [AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")]

#: name -> (definition factory, deferred); every view kind, the MIN/MAX
#: extension and a deferred view
CREATED_VIEWS = {
    "aggregate": (lambda: AggregateView("w", "sales", ("product",), COUNT_SUM), False),
    "minmax": (lambda: AggregateView("w", "sales", ("product",), [
        AggregateSpec.count("n"),
        AggregateSpec.min_of("lo", "amount"),
        AggregateSpec.max_of("hi", "amount"),
    ]), False),
    "deferred": (lambda: AggregateView("w", "sales", ("product",), COUNT_SUM), True),
    "projection": (lambda: ProjectionView(
        "w", "sales", ("id", "amount"), where=col_ge("amount", 5)), False),
    "join": (lambda: JoinView(
        "w", "sales", "products", ON,
        columns=("id", "product", "amount", "category")), False),
    "join_aggregate": (lambda: JoinAggregateView(
        "w", "sales", "products", ON, ("category",), COUNT_SUM), False),
}

sales_rows = st.dictionaries(
    st.integers(1, 40),
    st.tuples(st.integers(0, 4), st.integers(0, 20)),
    max_size=12,
)


def loaded_db(sales, products):
    """Two tables whose rows are committed before anything is created
    over them."""
    db = Database()
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_table("products", ("product", "category"), ("product",))
    with db.session() as s:
        for sale_id, (product, amount) in sorted(sales.items()):
            s.insert("sales", {
                "id": sale_id, "product": product, "amount": amount,
            })
        for product in sorted(products):
            s.insert("products", {
                "product": product, "category": product % 2,
            })
    return db


@pytest.mark.parametrize("online", [False, True])
@pytest.mark.parametrize("kind", sorted(CREATED_VIEWS))
@settings(max_examples=15, deadline=None)
@given(sales=sales_rows, products=st.sets(st.integers(0, 4)))
@example(sales={1: (0, 7), 2: (0, 3), 3: (1, 9)}, products={0, 1})
def test_view_created_over_existing_rows_survives_a_crash(
    kind, online, sales, products
):
    make, deferred = CREATED_VIEWS[kind]
    if online and kind in ("minmax", "deferred"):
        return  # refused online by design
    db = loaded_db(sales, products)
    view = db.create_view(make(), deferred=deferred, online=online)
    assert db.check_integrity().clean  # the fill went through the log
    db.simulate_crash_and_recover()
    assert db.check_all_views() == []
    assert db.check_integrity().clean
    expected = view.recompute(lambda table: db.index(table).rows())
    for key, row in expected.items():
        assert db.read_committed("w", key) == row


@pytest.mark.parametrize("unique", [False, True])
@settings(max_examples=15, deadline=None)
@given(sales=sales_rows)
@example(sales={1: (0, 7), 2: (0, 3), 3: (1, 9)})
def test_secondary_index_created_over_existing_rows_survives_a_crash(
    unique, sales
):
    db = loaded_db(sales, ())
    columns = ("id", "amount") if unique else ("product",)
    db.create_secondary_index("sales", "by", columns, unique=unique)
    assert db.check_integrity().clean
    db.simulate_crash_and_recover()
    assert db.check_integrity().clean
    txn = db.begin()
    for sale_id, (product, amount) in sales.items():
        probe = (sale_id, amount) if unique else (product,)
        found = db.lookup(txn, "sales", "by", probe)
        assert db.read_committed("sales", (sale_id,)) in found
    db.commit(txn)


def test_crash_mid_fill_leaves_the_view_absent():
    """Not registered-but-empty: the fill is one registered transaction,
    so recovery undoes it and drops the view with it."""
    db = loaded_db({i: (i % 3, i) for i in range(1, 10)}, ())
    db.install_fault_injector(FaultInjector(seed=3))
    db.faults.arm("view.online_build", times=1, match="snapshot:1")
    with pytest.raises(SimulatedCrash):
        db.create_view(CREATED_VIEWS["aggregate"][0]())
    db.faults.disarm()
    db.simulate_crash_and_recover()
    assert not db.catalog.has_view("w")
    assert "w" not in db.index_names()
    assert not db.online_builds.active
    assert db.check_integrity().clean
    db.create_view(CREATED_VIEWS["aggregate"][0]())  # a retry succeeds
    assert db.read_committed("w", (0,))["n"] == 3


@pytest.mark.parametrize("detail, complete", [
    ("snapshot:1", False), ("post_commit", True),
])
def test_crash_mid_fill_leaves_the_secondary_index_complete_or_absent(
    detail, complete
):
    """A secondary index is filled by the same registered build, fault
    site included: a crash before the build's commit leaves it absent,
    one after it complete."""
    db = loaded_db({i: (i % 3, i) for i in range(1, 10)}, ())
    db.install_fault_injector(FaultInjector(seed=3))
    db.faults.arm("view.online_build", times=1, match=detail)
    with pytest.raises(SimulatedCrash):
        db.create_secondary_index("sales", "by", ("product",))
    db.faults.disarm()
    db.simulate_crash_and_recover()
    assert db.catalog.has_view("sales#by") is complete
    assert ("sales#by" in db.index_names()) is complete
    assert not db.online_builds.active
    assert db.check_integrity().clean
    if not complete:
        db.create_secondary_index("sales", "by", ("product",))  # a retry
    txn = db.begin()
    assert len(db.lookup(txn, "sales", "by", (0,))) == 3
    db.commit(txn)


def test_create_view_refuses_to_materialize_an_open_writers_rows():
    db = loaded_db({1: (0, 5)}, ())
    writer = db.session()
    writer.begin()
    writer.insert("sales", {"id": 2, "product": 0, "amount": 7})
    with pytest.raises(LockTimeoutError):
        db.create_view(CREATED_VIEWS["aggregate"][0]())
    assert not db.catalog.has_view("w")
    writer.rollback()
    db.create_view(CREATED_VIEWS["aggregate"][0]())
    assert db.read_committed("w", (0,)) == {"product": 0, "n": 1, "t": 5}
    assert db.check_all_views() == []


@pytest.mark.parametrize("kind", sorted(CREATED_VIEWS))
def test_a_view_that_computes_empty_logs_nothing(kind):
    """Reference rows on the right side of a join do not make a view
    non-empty; creating it must not move an LSN or a transaction id (a
    transaction logs its BEGIN as it starts)."""
    make, deferred = CREATED_VIEWS[kind]
    db = loaded_db({}, {0, 1, 2})
    records = len(db.log)
    db.create_view(make(), deferred=deferred)
    assert len(db.log) == records
