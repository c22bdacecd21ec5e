"""Tests for the observability layer: tracer semantics, event ordering
under the simulator, ``Database.stats()`` reconciliation, the wait-for
graph snapshot, and the doc ↔ code event-catalogue contract."""

import pathlib
import re

import pytest

from repro.common import ReproError
from repro.core import Database, EngineConfig
from repro.core.inspect import trace_tail, wait_graph_snapshot
from repro.obs import (
    CATEGORIES,
    EVENT_TYPES,
    LOCK_STATS_FIELDS,
    NULL_TRACER,
    RECOVERY_REPORT_FIELDS,
    SALVAGE_REPORT_FIELDS,
    Tracer,
    validate_recovery_report,
)
from repro.query import AggregateSpec
from repro.sim import Scheduler
from repro.txn.transaction import Transaction
from repro.workload import BY_PRODUCT, SALES, OrderEntryWorkload
from repro.views import AggregateView

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


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


def insert_program(ids, product="hot"):
    def program():
        yield (
            "insert",
            SALES,
            {"id": next(ids), "product": product, "customer": 1, "amount": 1},
        )

    return program


class TestTracerBasics:
    def test_disabled_by_default_and_emits_nothing(self):
        db = sales_db()
        assert not db.tracer.enabled
        txn = db.begin()
        db.insert(txn, SALES, {"id": 1, "product": "a", "customer": 1, "amount": 2})
        db.commit(txn)
        assert len(db.tracer) == 0
        assert db.tracer.emitted == 0

    def test_enable_disable_roundtrip(self):
        db = sales_db()
        db.tracer.enable()
        t = db.begin()
        db.insert(t, SALES, {"id": 1, "product": "a", "customer": 1, "amount": 2})
        db.commit(t)
        n = len(db.tracer)
        assert n > 0
        db.tracer.disable()
        t = db.begin()
        db.insert(t, SALES, {"id": 2, "product": "a", "customer": 1, "amount": 2})
        db.commit(t)
        assert len(db.tracer) == n  # nothing emitted while disabled

    def test_category_filter(self):
        db = sales_db()
        db.tracer.enable(categories=("wal",))
        t = db.begin()
        db.insert(t, SALES, {"id": 1, "product": "a", "customer": 1, "amount": 2})
        db.commit(t)
        cats = {e.category for e in db.tracer.events()}
        assert cats == {"wal"}
        assert db.tracer.events(name="wal_append")

    def test_enable_unknown_category_rejected(self):
        with pytest.raises(ReproError):
            Tracer().enable(categories=("nope",))

    def test_emit_unregistered_name_rejected(self):
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(ReproError):
            tracer.emit("made_up_event")

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=3)
        tracer.enable()
        for i in range(5):
            tracer.emit("txn_begin", txn_id=i, isolation="x", system=False)
        assert len(tracer) == 3
        assert tracer.emitted == 5
        assert tracer.dropped == 2
        assert [e.txn_id for e in tracer.events()] == [2, 3, 4]
        assert tracer.summary()["dropped"] == 2

    def test_seq_total_order_and_clock_ts(self):
        db = sales_db()
        db.tracer.enable()
        t = db.begin()
        db.insert(t, SALES, {"id": 1, "product": "a", "customer": 1, "amount": 2})
        db.commit(t)
        seqs = [e.seq for e in db.tracer.events()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert all(isinstance(e.ts, int) for e in db.tracer.events())

    def test_null_tracer_cannot_be_enabled(self):
        with pytest.raises(ReproError):
            NULL_TRACER.enable()
        assert not NULL_TRACER.enabled

    def test_as_dicts_and_jsonl_are_json_safe(self, tmp_path):
        import json

        db = sales_db()
        db.tracer.enable()
        t = db.begin()
        db.insert(t, SALES, {"id": 1, "product": "a", "customer": 1, "amount": 2})
        db.commit(t)
        for d in db.tracer.as_dicts():
            json.dumps(d)
        path = tmp_path / "trace.jsonl"
        db.tracer.dump_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(db.tracer)
        assert json.loads(lines[0])["name"]


class TestEventOrdering:
    """Two Zipf-free writers on one hot group, under the simulator."""

    def run_two_writers(self, strategy):
        db = sales_db(strategy)
        # seed the hot group: its creation takes X on the new view key, so
        # even escrow writers would queue behind the group-creating insert
        seed = db.begin()
        db.insert(seed, SALES,
                  {"id": 999, "product": "hot", "customer": 1, "amount": 1})
        db.commit(seed)
        db.tracer.enable()
        ids = iter(range(1, 100))
        sched = Scheduler(db)
        sched.add_session(insert_program(ids), txns=3)
        sched.add_session(insert_program(ids), txns=3)
        result = sched.run()
        assert result.committed == 6
        return db

    def test_categories_present_and_causal_order(self):
        db = self.run_two_writers("escrow")
        cats = {e.category for e in db.tracer.events()}
        assert {"lock", "wal", "txn", "view"} <= cats
        # per txn: begin < first wal_append < commit, by seq
        commits = db.tracer.events(name="txn_commit")
        assert len(commits) == 6
        for commit in commits:
            history = db.tracer.events(txn_id=commit.txn_id)
            by_name = {}
            for e in history:
                by_name.setdefault(e.name, e)  # first occurrence
            assert by_name["txn_begin"].seq < by_name["wal_append"].seq
            assert by_name["wal_append"].seq < by_name["txn_commit"].seq
            assert by_name["view_action_compile"].seq < by_name["view_action_apply"].seq

    def test_escrow_hot_group_never_waits_xlock_does(self):
        escrow = self.run_two_writers("escrow")
        assert escrow.tracer.events(name="lock_wait") == []
        xlock = self.run_two_writers("xlock")
        waits = xlock.tracer.events(name="lock_wait")
        assert waits, "xlock writers on one hot group must queue"
        # each wait is eventually granted (cooperative policy, no deadlock here)
        granted = {(e.txn_id, e.fields["resource"]) for e in
                   xlock.tracer.events(name="lock_grant")}
        for w in waits:
            assert (w.txn_id, w.fields["resource"]) in granted

    def test_deterministic_replay(self):
        a = self.run_two_writers("escrow")
        b = self.run_two_writers("escrow")
        strip = [(e.name, e.txn_id, e.ts) for e in a.tracer.events()]
        assert strip == [(e.name, e.txn_id, e.ts) for e in b.tracer.events()]


class TestDatabaseStats:
    def test_stats_reconciles_with_counters_and_locks(self):
        db = sales_db()
        ids = iter(range(1, 100))
        sched = Scheduler(db)
        sched.add_session(insert_program(ids), txns=4)
        sched.add_session(insert_program(ids), txns=4)
        sched.run()
        stats = db.stats()
        assert stats["counters"] == db.counters.as_dict()
        assert stats["lock"] == db.locks.stats.as_dict()
        assert stats["txns"]["committed"] == db.committed_count == 8
        assert stats["txns"]["active"] == 0
        per_txn = stats["per_txn"]
        assert per_txn["latency"]["count"] == 8
        assert per_txn["log_bytes"]["count"] == 8
        assert per_txn["log_bytes"]["min"] > 0
        assert per_txn["actions"]["min"] >= 2  # base insert + view action
        assert stats["wal"]["records"] == len(db.log)
        assert stats["tracer"]["enabled"] is False

    def test_lock_section_is_pinned(self):
        assert set(sales_db().stats()["lock"]) == LOCK_STATS_FIELDS

    def test_requests_plus_covered_counts_every_acquire(self, monkeypatch):
        """``requests`` are the acquisitions that reached the lock
        manager's queues, ``covered`` the ones the transaction's held-lock
        table answered: together, every resource asked for — each
        ``Transaction.acquire`` call, and each resource a
        ``Transaction.acquire_run`` settled (the one past its prefix is
        the caller's next ``acquire``)."""
        calls = []
        acquire, acquire_run = Transaction.acquire, Transaction.acquire_run

        def counted(txn, resource, mode):
            calls.append(resource)
            return acquire(txn, resource, mode)

        def counted_run(txn, resources, mode):
            taken = acquire_run(txn, resources, mode)
            calls.extend(resources[:taken])
            return taken

        monkeypatch.setattr(Transaction, "acquire", counted)
        monkeypatch.setattr(Transaction, "acquire_run", counted_run)
        db = Database(EngineConfig())
        orders = OrderEntryWorkload(
            db, n_products=20, zipf_theta=1.0, seed=11
        ).setup().seed_groups()
        session = db.session()
        before = db.stats()["lock"]
        del calls[:]
        for _ in range(25):  # the benchmark's order_api transaction
            session.begin()
            for _ in range(4):
                session.insert(SALES, orders.next_sale_values())
            session.commit()
        after = db.stats()["lock"]
        requests = after["requests"] - before["requests"]
        covered = after["covered"] - before["covered"]
        assert requests + covered == len(calls)
        assert covered > 0
        # about one request per lock held at commit (table IX, fence and
        # key per insert, view table IX and row E), where asking for the
        # table intent before every key made it 28
        assert requests <= 12 * 25

    def test_lock_wait_histogram_fed_by_simulator(self):
        db = sales_db("xlock")
        ids = iter(range(1, 100))
        sched = Scheduler(db)
        sched.add_session(insert_program(ids), txns=3)
        sched.add_session(insert_program(ids), txns=3)
        sched.run()
        waits = db.stats()["per_txn"]["lock_wait"]
        assert waits["count"] > 0
        assert waits["min"] > 0

    def test_stats_survive_crash_recovery(self):
        db = sales_db()
        t = db.begin()
        db.insert(t, SALES, {"id": 1, "product": "a", "customer": 1, "amount": 2})
        db.commit(t)
        db.simulate_crash_and_recover()
        stats = db.stats()  # must not raise; fresh volatile state
        assert stats["txns"]["active"] == 0
        t = db.begin()
        db.insert(t, SALES, {"id": 2, "product": "a", "customer": 1, "amount": 2})
        db.commit(t)
        assert db.stats()["txns"]["committed"] >= 1


class TestWaitGraphSnapshot:
    def test_empty_when_idle(self):
        db = sales_db()
        snap = wait_graph_snapshot(db)
        assert snap == {"edges": [], "waiters": []}

    def test_trace_tail(self):
        db = sales_db()
        db.tracer.enable()
        t = db.begin()
        db.insert(t, SALES, {"id": 1, "product": "a", "customer": 1, "amount": 2})
        db.commit(t)
        tail = trace_tail(db, n=3)
        assert len(tail) == 3
        assert tail == db.tracer.events()[-3:]
        assert trace_tail(db, n=5, category="wal") == db.tracer.events(category="wal")[-5:]


class TestDocContract:
    """docs/OBSERVABILITY.md must document exactly the registered events."""

    def test_catalogue_matches_registry(self):
        text = (DOCS / "OBSERVABILITY.md").read_text()
        documented = set(re.findall(r"^#### `(\w+)`$", text, re.MULTILINE))
        assert documented == set(EVENT_TYPES)

    def test_categories_documented(self):
        text = (DOCS / "OBSERVABILITY.md").read_text()
        for cat in CATEGORIES:
            assert f"`{cat}`" in text

    def test_documented_fields_match_registry(self):
        text = (DOCS / "OBSERVABILITY.md").read_text()
        # each event section lists one table row per field: "| `name` | ..."
        for name, spec in EVENT_TYPES.items():
            section = re.search(
                r"^#### `%s`$(.*?)(?=^#### |^## |\Z)" % name,
                text,
                re.MULTILINE | re.DOTALL,
            )
            assert section, f"missing section for {name}"
            rows = set(re.findall(r"^\| `(\w+)` \|", section.group(1), re.MULTILINE))
            assert rows == set(spec["fields"]), f"field mismatch for {name}"


class TestRecoveryReportContract:
    """``RecoveryReport.as_dict()`` is a pinned schema, like the result
    JSON: the salvage/restart accounting cannot silently drop fields."""

    def test_live_report_matches_pinned_fields(self):
        db = sales_db()
        with db.session() as s:
            s.insert(SALES, {"id": 1, "product": "a", "customer": 1, "amount": 2})
        report = db.simulate_crash_and_recover()
        doc = report.as_dict()
        assert set(doc) == set(RECOVERY_REPORT_FIELDS)
        assert validate_recovery_report(doc) == []
        assert doc["salvage"] is None
        assert doc["restarts"] == 0

    def test_salvaged_report_matches_pinned_fields(self):
        db = sales_db()
        for i in range(1, 4):
            with db.session() as s:
                s.insert(SALES, {"id": i, "product": "a", "customer": 1, "amount": 2})
        db.log.flush()
        db.log.corrupt(db.log.tail_lsn() - 1)
        doc = db.simulate_crash_and_recover().as_dict()
        assert doc["salvage"] is not None
        assert set(doc["salvage"]) == set(SALVAGE_REPORT_FIELDS)
        assert validate_recovery_report(doc) == []

    def test_validator_rejects_drift(self):
        db = sales_db()
        with db.session() as s:
            s.insert(SALES, {"id": 1, "product": "a", "customer": 1, "amount": 2})
        doc = db.simulate_crash_and_recover().as_dict()
        doc.pop("restarts")
        doc["extra"] = 1
        problems = validate_recovery_report(doc)
        assert any("missing key 'restarts'" in p for p in problems)
        assert any("extra key 'extra'" in p for p in problems)
        bad_salvage = dict(doc, restarts=0, salvage={"truncated_lsn": "x"})
        bad_salvage.pop("extra")
        assert validate_recovery_report(bad_salvage) != []
