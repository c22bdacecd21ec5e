"""Online view creation (``WITH (online = true)`` /
``repro.views.online``): builds under concurrent committed writers,
reads refused mid-build, trace events, and the completes-or-vanishes
crash contract at every fault-site detail."""

import pytest

from repro.api import (
    CatalogError,
    Database,
    FaultInjector,
    SimulatedCrash,
    StorageError,
)

VIEW_SQL = (
    "CREATE UNIQUE INDEXED VIEW rev_by_category "
    "WITH (online = true) AS "
    "SELECT category, COUNT(*) AS n, SUM(amount) AS rev "
    "FROM sales JOIN products ON sales.product = products.product "
    "GROUP BY category"
)


def seeded_db(tracer=False):
    db = Database()
    if tracer:
        db.tracer.enable()
    db.execute(
        """
        CREATE TABLE sales (id, product, amount, PRIMARY KEY (id));
        CREATE TABLE products (product, category, PRIMARY KEY (product));
        INSERT INTO products (product, category) VALUES
            ('anvil', 'heavy'), ('piano', 'heavy'), ('tnt', 'boom');
        INSERT INTO sales (id, product, amount) VALUES
            (1, 'anvil', 30), (2, 'piano', 500), (3, 'tnt', 7),
            (4, 'anvil', 12);
        """
    )
    return db


def insert_sale(db, sale_id, product, amount):
    db.execute(
        f"INSERT INTO sales (id, product, amount) "
        f"VALUES ({sale_id}, {product!r}, {amount})"
    )


def assert_view_matches_recomputation(db):
    assert db.check_view_consistency("rev_by_category") == []
    expected = db.execute(
        "SELECT category, COUNT(*) AS n, SUM(amount) AS rev "
        "FROM sales JOIN products ON sales.product = products.product "
        "GROUP BY category"
    )
    actual = db.execute("SELECT * FROM rev_by_category")
    assert actual == expected


# ---------------------------------------------------------------------
# the happy path
# ---------------------------------------------------------------------


def test_online_build_over_existing_data(tmp_path):
    db = seeded_db(tracer=True)
    view = db.execute(VIEW_SQL)
    assert view.kind == "join_aggregate"
    assert not db.online_builds.active
    assert_view_matches_recomputation(db)
    row = db.read_committed("rev_by_category", ("heavy",))
    assert (row["n"], row["rev"]) == (3, 542)

    # No writer committed mid-build, so the flip corrects nothing.
    events = db.tracer.events(name="view_online_build")
    assert [e.fields["phase"] for e in events] == [
        "snapshot", "flip", "completed",
    ]
    assert events[1].fields["rows"] == 0

    # The build logged its inserts, so the full integrity checker —
    # storage mirror included — stays clean.
    assert db.check_integrity().clean
    # ...and the view is ordinarily maintained afterwards.
    insert_sale(db, 5, "tnt", 100)
    assert db.read_committed("rev_by_category", ("boom",))["rev"] == 107
    assert_view_matches_recomputation(db)


def test_online_build_survives_crash_recovery_roundtrip():
    db = seeded_db()
    db.execute(VIEW_SQL)
    db.simulate_crash_and_recover()
    assert_view_matches_recomputation(db)


def base_total(db):
    return sum(row["amount"] for row in db.execute("SELECT amount FROM sales"))


def test_stepwise_build_absorbs_concurrent_committed_writers():
    """Writers commit between the snapshot and the flip; the finished
    view includes all of them, and its SUM folded over groups equals the
    base table's total (conservation)."""
    db = seeded_db()
    before = base_total(db)
    builder = db.begin_online_build(VIEW_SQL)
    builder.start()

    # The half-built view must be invisible to readers...
    with pytest.raises(CatalogError, match="being built online"):
        db.read_committed("rev_by_category", ("heavy",))
    txn = db.begin()
    with pytest.raises(CatalogError):
        db.scan(txn, "rev_by_category")
    db.abort(txn)
    # ...and its per-view consistency check abstains.
    assert db.check_view_consistency("rev_by_category") == []

    insert_sale(db, 10, "tnt", 1)
    insert_sale(db, 11, "piano", 40)
    db.execute("UPDATE sales SET amount = amount + 1 WHERE id = 1")
    insert_sale(db, 12, "anvil", 3)
    builder.finish()

    assert not db.online_builds.active
    assert_view_matches_recomputation(db)
    row = db.read_committed("rev_by_category", ("boom",))
    assert (row["n"], row["rev"]) == (2, 8)
    total = base_total(db)
    folded = sum(
        row["rev"] for row in db.execute("SELECT * FROM rev_by_category")
    )
    assert folded == total != before
    assert db.check_integrity().clean


def test_flip_corrects_deletes_updates_and_partial_rollbacks():
    db = seeded_db()
    builder = db.begin_online_build(VIEW_SQL)
    builder.start()

    db.execute("DELETE FROM sales WHERE id = 2")
    db.execute("UPDATE sales SET amount = 99 WHERE id = 3")
    # A savepoint rollback mid-transaction: the flip must see only what
    # survived.
    session = db.session()
    txn = session.begin()
    db.insert(txn, "sales", {"id": 20, "product": "tnt", "amount": 5})
    sp = db.savepoint(txn)
    db.insert(txn, "sales", {"id": 21, "product": "piano", "amount": 7})
    db.rollback_to(txn, sp)
    session.commit()

    builder.finish()
    assert_view_matches_recomputation(db)
    row = db.read_committed("rev_by_category", ("boom",))
    assert (row["n"], row["rev"]) == (2, 104)  # ids 3 (99) and 20 (5)


def test_flip_sees_a_right_side_update_made_mid_build():
    """A products row changes after a sale of it committed mid-build. A
    replay of both against today's products moved the new sale twice
    and the build vanished on an escrow violation; the flip diffs
    against the bases as they are."""
    db = seeded_db()
    builder = db.begin_online_build(VIEW_SQL)
    builder.start()
    insert_sale(db, 50, "tnt", 9)
    db.execute("UPDATE products SET category = 'quiet' WHERE product = 'tnt'")
    builder.finish()
    assert_view_matches_recomputation(db)
    row = db.read_committed("rev_by_category", ("quiet",))
    assert (row["n"], row["rev"]) == (2, 16)
    assert db.read_committed("rev_by_category", ("boom",)) is None
    assert db.check_integrity().clean


@pytest.mark.parametrize("options, select", [
    ("online = true, deferred = true",
     "SELECT product, COUNT(*) AS n FROM sales GROUP BY product"),
    ("online = true",
     "SELECT product, COUNT(*) AS n, MIN(amount) AS lo, MAX(amount) AS hi "
     "FROM sales GROUP BY product"),
])
def test_deferred_and_extreme_views_build_online(options, select):
    """Both were refused online while the build replayed writers' changes
    through the maintainers; a reconcile needs neither."""
    db = seeded_db()
    builder = db.begin_online_build(
        f"CREATE UNIQUE INDEXED VIEW v WITH ({options}) AS {select}"
    )
    builder.start()
    db.execute("DELETE FROM sales WHERE id = 4")  # anvil's MIN goes
    insert_sale(db, 60, "tnt", 2)
    view = builder.finish()
    assert db.check_view_consistency("v") == []
    assert db.execute("SELECT * FROM v") == db.execute(select)
    assert db.check_integrity().clean
    assert view.deferred is ("deferred" in options)
    insert_sale(db, 61, "rope", 1)
    assert db.deferred.pending_count("v") == int(view.deferred)


def test_failed_build_vanishes_without_a_trace():
    """A non-crash failure mid-build (here: verification forced to run
    against a poisoned oracle is overkill — use the mutually-refused
    duplicate name) leaves no view, no indexes, no registry entry."""
    db = seeded_db()
    db.execute(VIEW_SQL)
    with pytest.raises(CatalogError):
        db.execute(VIEW_SQL)  # duplicate name fails inside start()
    assert not db.online_builds.active
    assert_view_matches_recomputation(db)  # original untouched
    assert db.check_integrity().clean


# ---------------------------------------------------------------------
# the crash contract: completes (on recovery) or vanishes
# ---------------------------------------------------------------------


def _crash_build_at(match):
    db = seeded_db(tracer=True)
    db.install_fault_injector(FaultInjector(seed=42))
    db.faults.arm("view.online_build", times=1, match=match)
    with pytest.raises(SimulatedCrash) as exc:
        db.execute(VIEW_SQL)
    db.faults.disarm()
    return db, exc.value


@pytest.mark.parametrize("match", ["snapshot:", "flip"])
def test_crash_before_commit_point_vanishes(match):
    db, crash = _crash_build_at(match)
    assert crash.committed is False
    db.simulate_crash_and_recover()

    assert not db.online_builds.active
    assert not db.catalog.has_view("rev_by_category")
    with pytest.raises(StorageError, match="no index"):
        db.read_committed("rev_by_category", ("heavy",))
    phases = [e.fields["phase"] for e in db.tracer.events(
        name="view_online_build")]
    assert phases[-1] == "vanished"
    assert db.check_integrity().clean

    # A clean retry succeeds from scratch.
    db.execute(VIEW_SQL)
    assert_view_matches_recomputation(db)


def test_crash_after_commit_point_completes_on_recovery():
    db, crash = _crash_build_at("post_commit")
    assert crash.committed is True
    db.simulate_crash_and_recover()

    assert not db.online_builds.active
    assert db.catalog.has_view("rev_by_category")
    phases = [e.fields["phase"] for e in db.tracer.events(
        name="view_online_build")]
    assert phases[-1] == "completed_on_recovery"
    assert_view_matches_recomputation(db)
    assert db.check_integrity().clean

    # Ordinary maintenance picks the completed view up seamlessly.
    insert_sale(db, 30, "piano", 11)
    assert db.read_committed("rev_by_category", ("heavy",))["rev"] == 553
    assert_view_matches_recomputation(db)


def test_an_empty_online_build_crashed_after_its_commit_is_complete():
    """An online build over no rows logs nothing, so recovery finds no
    commit for it: it must not be left for recovery to vanish."""
    db = Database()
    db.execute(
        "CREATE TABLE sales (id, product, amount, PRIMARY KEY (id));"
        "CREATE TABLE products (product, category, PRIMARY KEY (product));"
    )
    db.install_fault_injector(FaultInjector(seed=0))
    db.faults.arm("view.online_build", times=1, match="post_commit")
    with pytest.raises(SimulatedCrash) as exc:
        db.execute(VIEW_SQL)
    db.faults.disarm()
    assert exc.value.committed is True
    assert not db.online_builds.active
    db.simulate_crash_and_recover()
    assert db.catalog.has_view("rev_by_category")
    db.execute("INSERT INTO products (product, category) VALUES ('tnt', 'boom')")
    insert_sale(db, 1, "tnt", 7)
    assert_view_matches_recomputation(db)


def test_crash_midbuild_with_concurrent_writer_still_vanishes_cleanly():
    """A writer committed between snapshot and the crash at the flip.
    Recovery must keep the writer (it was durable) while the half-built
    view vanishes."""
    db = seeded_db()
    builder = db.begin_online_build(VIEW_SQL)
    builder.start()
    insert_sale(db, 40, "tnt", 13)

    db.install_fault_injector(FaultInjector(seed=7))
    db.faults.arm("view.online_build", times=1, match="flip")
    with pytest.raises(SimulatedCrash):
        builder.finish()
    db.faults.disarm()
    db.simulate_crash_and_recover()

    assert not db.catalog.has_view("rev_by_category")
    assert db.read_committed("sales", (40,)) is not None
    assert db.check_all_views() == []
    assert db.check_integrity().clean
