"""The online integrity checker, view quarantine, and online rebuild.

The checker (`repro.integrity`) is an *independent oracle*: it trusts
only the base-table heaps and recomputes everything else — B-tree
structural invariants, secondary/unique-index agreement, and every
indexed view against a fresh recomputation. Quarantine is the degraded
mode between detection and repair: reads of a quarantined view fall
back to recomputation (correct, slower), maintenance pauses, and
``rebuild_view`` re-materializes it online under locks.
"""

import pytest

from repro.common import CatalogError, IntegrityError, KeyRange
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec, col_ge
from repro.storage.pages import SlottedPage
from repro.wal.codec import pack_entry
from repro.workload import BY_PRODUCT, SALES
from repro.views import AggregateView, ProjectionView


def build_db(**kwargs):
    db = Database(EngineConfig(**kwargs))
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
    db.create_view(ProjectionView(
        "big_sales",
        SALES,
        columns=("id", "amount"),
        where=col_ge("amount", 15),
    ))
    db.create_secondary_index(SALES, "by_customer", ("customer",))
    return db


def seed(db, n=6):
    for i in range(1, n + 1):
        with db.session() as s:
            s.insert(SALES, {
                "id": i, "product": "ant" if i % 2 else "bee",
                "customer": i % 3, "amount": 10 * i,
            })


def damage_view_row(db, view=BY_PRODUCT, key=("ant",), **overrides):
    """Silently corrupt a materialized view row, bypassing the WAL —
    the kind of damage only an independent checker can find."""
    record = db.index(view).get_record(key)
    record.current_row = record.current_row.replace(**overrides)


class TestChecker:
    def test_clean_database(self):
        db = build_db()
        seed(db)
        report = db.check_integrity()
        assert report.clean
        assert report.damage == []
        # two views and the secondary index, which is a view too
        assert report.views_checked == 3
        # base table + 2 view indexes + secondary index, at least
        assert report.indexes_checked >= 4
        assert db.stats()["integrity"]["checks"] == 1
        assert db.stats()["integrity"]["damage_found"] == 0

    def test_detects_wrong_aggregate_value(self):
        db = build_db()
        seed(db)
        db.take_checkpoint()  # every leaf written back: all are clean
        damage_view_row(db, revenue=99999)
        report = db.check_integrity()
        assert not report.clean
        assert BY_PRODUCT in report.damaged_views()
        kinds = {d.kind for d in report.damage}
        # The tampered live row is caught twice: against recomputation
        # ("view") and against its clean leaf's durable image ("storage").
        assert kinds == {"view", "storage"}
        assert db.stats()["integrity"]["damage_found"] == len(report.damage)

    def test_a_clean_leaf_whose_image_holds_another_entry_is_damage(self):
        """Write-back fidelity: a well-formed image under a valid CRC
        that says something the clean leaf does not is storage damage
        naming that leaf; a dirty leaf is not compared."""
        db = build_db()
        seed(db)
        db.take_checkpoint()
        (leaf,) = db.index(BY_PRODUCT).leaves()
        page = SlottedPage(leaf.page_id, db.indexes.pool.payloads(leaf)[0][1:] + [
            pack_entry(db.index(BY_PRODUCT).layout, ("cat",), {
                "product": "cat", "n_sales": 1, "revenue": 5,
            }, False, 1),
        ], page_size=db.config.page_size)
        images = db.indexes.store.snapshot()
        images[leaf.page_id] = page.to_bytes()
        db.indexes.store.restore(images)
        report = db.check_integrity()
        (finding,) = report.damage
        assert (finding.kind, finding.index) == ("storage", BY_PRODUCT)
        assert finding.key == (leaf.page_id,)
        assert f"leaf page {leaf.page_id}" in finding.detail
        assert "cat" in finding.detail and "ant" in finding.detail
        with db.session() as s:  # the leaf turns dirty: its image is stale
            s.insert(SALES, {
                "id": 99, "product": "bee", "customer": 0, "amount": 1,
            })
        assert db.check_integrity().clean

    def test_a_clean_leaf_with_no_image_is_a_lost_page(self):
        """Every clean leaf that holds entries has been written back, so
        one whose image is gone from the store is storage damage."""
        db = build_db()
        seed(db)
        db.take_checkpoint()
        (leaf,) = db.index(BY_PRODUCT).leaves()
        assert leaf.values and leaf.rec_lsn is None
        images = db.indexes.store.snapshot()
        del images[leaf.page_id]
        db.indexes.store.restore(images)
        (finding,) = db.check_integrity().damage
        assert (finding.kind, finding.index) == ("storage", BY_PRODUCT)
        assert finding.key == (leaf.page_id,)
        assert "no durable image" in finding.detail

    def test_detects_missing_view_row(self):
        db = build_db()
        seed(db)
        db.index("big_sales").set_entry((2,), None)
        report = db.check_integrity()
        assert not report.clean
        assert "big_sales" in report.damaged_views()

    def test_detects_phantom_view_row(self):
        db = build_db()
        seed(db)
        from repro.common import Row
        db.index(BY_PRODUCT).set_entry(("ghost-group",), (
            Row({"product": "ghost-group", "n_sales": 3, "revenue": 1}), False,
        ))
        report = db.check_integrity()
        assert not report.clean
        assert BY_PRODUCT in report.damaged_views()

    def test_drifted_secondary_index_is_quarantined_and_rebuilt(self):
        """A secondary index is a view: a lost entry is view damage, the
        quarantined index answers lookups from recomputation, and a
        rebuild repairs it."""
        db = build_db()
        seed(db)
        name = f"{SALES}#by_customer"
        index = db.index(name)
        victim = next(iter(index.scan()))[0]
        index.set_entry(victim, None)
        report = db.check_integrity(quarantine=True)
        assert any(d.kind == "view" and d.view == name for d in report.damage)
        assert report.damaged_views() == [name]
        assert db.quarantine.is_quarantined(name)
        customer, sale_id = victim
        with db.session() as s:
            found = s.lookup(SALES, "by_customer", (customer,))
        assert db.read_committed(SALES, (sale_id,)) in found
        assert db.stats()["integrity"]["degraded_reads"] >= 1
        assert db.rebuild_view(name) == 1
        assert not db.quarantine.is_quarantined(name)
        assert db.check_integrity().clean

    def test_unique_index_over_duplicated_rows_is_a_finding(self):
        """Base rows that break a unique index (here: tampered past the
        log) make its recompute refuse them; the checker reports that
        instead of raising."""
        from repro.common import Row

        db = Database(EngineConfig())
        db.create_table("users", ("uid", "email"), ("uid",))
        db.create_secondary_index("users", "by_email", ("email",), unique=True)
        with db.session() as s:
            s.insert("users", {"uid": 1, "email": "a@x"})
            s.insert("users", {"uid": 2, "email": "b@x"})
        db.index("users").set_entry((2,), (Row(uid=2, email="a@x"), False))
        report = db.check_integrity()
        (finding,) = [d for d in report.damage if d.kind == "view"]
        assert finding.view == "users#by_email"
        assert "duplicate value ('a@x',)" in finding.detail

    def test_report_as_dict_round_trips(self):
        db = build_db()
        seed(db)
        damage_view_row(db, n_sales=0)
        report = db.check_integrity()
        doc = report.as_dict()
        assert doc["clean"] is False
        assert all(
            {"kind", "index", "key", "detail", "view"} <= set(d)
            for d in doc["damage"]
        )

    def test_integrity_check_event(self):
        db = build_db()
        seed(db)
        db.tracer.enable()
        db.check_integrity()
        events = db.tracer.events(name="integrity_check")
        assert len(events) == 1
        assert events[0].fields["damage"] == 0
        assert events[0].fields["views"] == 3

    @pytest.mark.parametrize("frames", [2, 3, 8])
    def test_physical_counter_rollback_leaves_true_leaf_images(self, frames):
        """Under ``counter_logging="physical"`` online rollback gives back
        the deltas a ``CounterImageRecord`` reserved before it stamps the
        group's record, so no leaf image keeps the rolled-back counters
        (the crash machine's shrunk case: seeded, one session deletes rows
        0 and 2 and aborts)."""
        db = Database(EngineConfig(
            counter_logging="physical", btree_order=4,
            buffer_pool_frames=frames, page_size=256,
        ))
        db.create_table("t", ("id", "g", "amount", "v"), ("id",))
        db.create_view(AggregateView(
            "by_g", "t", group_by=("g",),
            aggregates=[
                AggregateSpec.count("n"), AggregateSpec.sum_of("total", "amount"),
            ],
        ))
        with db.session() as s:
            for key in range(8):  # two rows of 5 in each group
                s.insert("t", {"id": key, "g": key % 4, "amount": 5, "v": None})
        txn = db.begin()
        db.delete(txn, "t", (0,))
        db.delete(txn, "t", (2,))
        db.abort(txn)
        assert db.check_integrity().clean
        assert db.read_committed("by_g", (0,))["n"] == 2


class TestQuarantine:
    def test_unknown_view_rejected(self):
        db = build_db()
        with pytest.raises(CatalogError):
            db.quarantine_view("nope")
        with pytest.raises(CatalogError):
            db.quarantine_view(SALES)  # a table is not a view

    def test_lift_requires_quarantine(self):
        db = build_db()
        with pytest.raises(IntegrityError):
            db.quarantine.lift(BY_PRODUCT)
        with pytest.raises(IntegrityError):
            db.rebuild_view(BY_PRODUCT)

    def test_check_integrity_quarantines_damaged_views(self):
        db = build_db()
        seed(db)
        db.tracer.enable()
        damage_view_row(db, revenue=99999)
        db.check_integrity(quarantine=True)
        assert db.quarantine.is_quarantined(BY_PRODUCT)
        assert not db.quarantine.is_quarantined("big_sales")
        assert db.stats()["integrity"]["quarantined"] == [BY_PRODUCT]
        events = db.tracer.events(name="view_quarantined")
        assert len(events) == 1
        assert events[0].fields["view"] == BY_PRODUCT
        assert "revenue" in events[0].fields["reason"] or events[0].fields["reason"]

    def test_degraded_reads_recompute(self):
        """Quarantined reads must equal base-table recomputation even
        though the materialized row is garbage."""
        db = build_db()
        seed(db)
        truth = db.read_committed(BY_PRODUCT, ("ant",))
        damage_view_row(db, revenue=99999, n_sales=50)
        db.check_integrity(quarantine=True)
        # read_committed
        assert db.read_committed(BY_PRODUCT, ("ant",)) == truth
        # serializable read inside a transaction
        with db.session() as s:
            assert s.read(BY_PRODUCT, ("ant",)) == truth
        # snapshot read
        with db.session(isolation="snapshot") as s:
            assert s.read(BY_PRODUCT, ("ant",)) == truth
        # scan (rows come back in key order; "ant" < "bee")
        with db.session() as s:
            rows = s.scan(BY_PRODUCT)
            assert rows[0] == truth
            # bounded scan
            bounded = s.scan(BY_PRODUCT, KeyRange.exactly(("ant",)))
            assert bounded == [truth]
        assert db.stats()["integrity"]["degraded_reads"] >= 5

    def test_maintenance_pauses_but_degraded_reads_see_new_data(self):
        db = build_db()
        seed(db)
        damage_view_row(db, revenue=99999)
        db.check_integrity(quarantine=True)
        before = db.read_committed(BY_PRODUCT, ("ant",))
        with db.session() as s:
            s.insert(SALES, {
                "id": 100, "product": "ant", "customer": 1, "amount": 40,
            })
        # the materialized row was NOT maintained (view is quarantined)...
        stale = db.index(BY_PRODUCT).get_record(("ant",)).current_row
        assert stale["revenue"] == 99999
        # ...but the degraded read reflects the new base row immediately
        after = db.read_committed(BY_PRODUCT, ("ant",))
        assert after["n_sales"] == before["n_sales"] + 1
        assert after["revenue"] == before["revenue"] + 40

    def test_other_views_keep_normal_maintenance(self):
        db = build_db()
        seed(db)
        damage_view_row(db, revenue=99999)
        db.check_integrity(quarantine=True)
        with db.session() as s:
            s.insert(SALES, {
                "id": 101, "product": "bee", "customer": 2, "amount": 50,
            })
        assert db.index("big_sales").get_record((101,)) is not None


class TestRebuild:
    def damaged_quarantined_db(self):
        db = build_db()
        seed(db)
        damage_view_row(db, revenue=99999, n_sales=50)
        db.index("big_sales").set_entry((2,), None)
        db.check_integrity(quarantine=True)
        assert set(db.quarantine.quarantined()) == {BY_PRODUCT, "big_sales"}
        return db

    def test_rebuild_restores_and_lifts(self):
        db = self.damaged_quarantined_db()
        db.tracer.enable()
        corrections = db.rebuild_view(BY_PRODUCT)
        assert corrections >= 1
        assert not db.quarantine.is_quarantined(BY_PRODUCT)
        db.rebuild_view("big_sales")
        assert db.quarantine.quarantined() == []
        report = db.check_integrity()
        assert report.clean, [repr(d) for d in report.damage]
        assert db.check_all_views() == []
        rebuilt = db.tracer.events(name="view_rebuilt")
        assert [e.fields["view"] for e in rebuilt] == [BY_PRODUCT, "big_sales"]
        assert db.stats()["integrity"]["rebuilds"] == 2

    def test_maintenance_resumes_after_rebuild(self):
        db = self.damaged_quarantined_db()
        db.rebuild_view(BY_PRODUCT)
        db.rebuild_view("big_sales")
        truth = db.read_committed(BY_PRODUCT, ("ant",))
        with db.session() as s:
            s.insert(SALES, {
                "id": 102, "product": "ant", "customer": 0, "amount": 25,
            })
        # normal (indexed) reads again, and escrow maintenance works
        row = db.index(BY_PRODUCT).get_record(("ant",)).current_row
        got = db.read_committed(BY_PRODUCT, ("ant",))
        assert got["n_sales"] == truth["n_sales"] + 1
        assert got["revenue"] == truth["revenue"] + 25
        assert got == db.read_committed(BY_PRODUCT, ("ant",))
        assert db.check_integrity().clean

    def test_rebuild_survives_crash_recovery(self):
        """Rebuild corrections are logged: a crash after the rebuild must
        replay them, not resurrect the damage."""
        db = self.damaged_quarantined_db()
        db.rebuild_view(BY_PRODUCT)
        db.rebuild_view("big_sales")
        db.log.flush()
        db.simulate_crash_and_recover()
        assert db.check_integrity().clean
        assert db.check_all_views() == []

    def test_quarantine_state_survives_crash(self):
        """Quarantine is an operator decision, not volatile cache: a
        crash must not silently un-quarantine a damaged view."""
        db = build_db()
        seed(db)
        db.quarantine_view(BY_PRODUCT, reason="operator drill")
        db.simulate_crash_and_recover()
        assert db.quarantine.is_quarantined(BY_PRODUCT)
        assert db.quarantine.reason(BY_PRODUCT) == "operator drill"
        # recovery rebuilt the view correctly from the log, so a rebuild
        # finds nothing to fix and reads go back to the index
        db.rebuild_view(BY_PRODUCT)
        assert db.check_integrity().clean
